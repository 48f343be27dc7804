package serve

// POST /v1/evaltrace — trace-driven transient evaluation streamed as
// Server-Sent Events. One request is one bounded stream: the power
// schedule is admitted under a single queue slot (like a batch), the
// solver integrates segment by segment, and a `checkpoint` event is
// flushed to the client as each segment completes, carrying the
// segment's peak temperature (and, with include_state, the exact
// resumable state vector). The stream terminates with exactly one
// `done` or `error` event — deadline expiry and shutdown mid-trace
// produce a well-formed terminal frame, never a torn one.
//
// Streams are deliberately uncached and uncoalesced: a trace is
// stateful (resume_from continues a client-specific run) and its
// value is the progressive delivery, not the final field. Client
// disconnection cancels the underlying solve within one inner
// iteration via the request context.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// writeSSE emits one complete SSE frame (event name + single-line
// JSON data) and flushes it to the client immediately.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	if fl != nil {
		fl.Flush()
	}
	return nil
}

func (s *Server) handleEvalTrace(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()

	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.TraceEvent{Error: err.Error()})
		return
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, specio.TraceEvent{Error: "request body exceeds 16 MiB"})
		return
	}
	req, err := specio.ParseTrace(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.TraceEvent{Error: err.Error()})
		return
	}
	te, err := specio.BuildTrace(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.TraceEvent{Error: err.Error()})
		return
	}

	// One queue slot for the whole trace, backpressure identical to
	// admitAndSolve.
	release, err := s.gate.Admit(s.baseCtx.Done())
	switch {
	case err == nil:
	case errors.Is(err, errBusy):
		s.reject(w, http.StatusServiceUnavailable, "solve queue is full, retry later")
		return
	case errors.Is(err, errDraining):
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
		writeJSON(w, http.StatusInternalServerError, specio.TraceEvent{Error: err.Error()})
		return
	}
	defer release()

	// Deadline: the whole stream runs under one solve deadline; the
	// client going away cancels the same context so a disconnected
	// stream stops integrating within one inner iteration.
	ctx, cancel := s.backend.deadline(te.Base.Timeout)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	s.ctr.traceStreams.Add(1)
	s.cfg.Telemetry.Add(telemetry.CounterTraceStreams, 1)

	nseg := len(te.Segments)
	progress := 0
	if te.Resume != nil {
		progress = te.Resume.Segment
	}
	topts := solver.TraceOptions{
		Resume: te.Resume,
		OnCheckpoint: func(cp *solver.TraceCheckpoint) error {
			progress = cp.Segment
			ev := specio.TraceEvent{
				Segment:  cp.Segment,
				Segments: nseg,
				TimeS:    cp.Time,
				PeakT:    telemetry.Float(cp.PeakT),
			}
			if te.Req.IncludeState {
				ev.Checkpoint = &specio.TraceCheckpointJSON{
					Segment: cp.Segment,
					TimeS:   cp.Time,
					PeakT:   telemetry.Float(cp.PeakT),
					State:   specio.EncodeTraceState(cp.T),
				}
			}
			s.ctr.traceCheckpoints.Add(1)
			s.cfg.Telemetry.Add(telemetry.CounterTraceCheckpoints, 1)
			return writeSSE(w, fl, specio.TraceEventCheckpoint, ev)
		},
	}
	res, err := s.backend.SolveTrace(ctx, te, topts)
	if err != nil {
		s.ctr.failures.Add(1)
		// Terminal error frame: always well-formed, even when the
		// failure is the client's own disconnect (then the write is
		// best-effort into a closed pipe).
		writeSSE(w, fl, specio.TraceEventError, specio.TraceEvent{
			Segment:  progress,
			Segments: nseg,
			Error:    err.Error(),
			WallNS:   time.Since(start).Nanoseconds(),
		})
		return
	}
	s.lat.Observe(time.Since(start))
	writeSSE(w, fl, specio.TraceEventDone, specio.TraceEvent{
		Segment:  nseg,
		Segments: nseg,
		TimeS:    res.Time,
		PeakT:    telemetry.Float(res.PeakT),
		Steps:    res.Steps,
		WallNS:   time.Since(start).Nanoseconds(),
	})
}
