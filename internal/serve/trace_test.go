package serve

// Streaming contract suite for POST /v1/evaltrace: SSE framing pinned
// by a golden (regenerate with -update like the other goldens),
// bitwise resume over the wire, mid-stream client disconnect under
// -race with goroutine-leak checks, and deadline expiry mid-trace
// terminating with a well-formed error frame.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermalscaffold/internal/specio"
)

func traceTestRequest() specio.TraceRequest {
	idle := 0.25
	return specio.TraceRequest{
		Stack:  testStack(2, 8, 20),
		Solver: specio.SolverJSON{Precond: "zline"},
		Segments: []specio.TraceSegmentJSON{
			{DtS: 1e-4, Steps: 3},
			{DtS: 1e-4, Steps: 2, PowerScale: &idle},
			{DtS: 5e-5, Steps: 2, PowerBlocks: []specio.PowerBlock{
				{X0: 1, Y0: 1, X1: 4, Y1: 4, DensityWPerCm2: 30},
			}},
		},
		IncludeState: true,
	}
}

// sseFrame is one parsed event/data pair.
type sseFrame struct {
	event string
	data  []byte
}

func parseSSE(t *testing.T, body []byte) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, chunk := range strings.Split(string(body), "\n\n") {
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		lines := strings.SplitN(chunk, "\n", 2)
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: ") || !strings.HasPrefix(lines[1], "data: ") {
			t.Fatalf("malformed SSE frame:\n%s", chunk)
		}
		frames = append(frames, sseFrame{
			event: strings.TrimPrefix(lines[0], "event: "),
			data:  []byte(strings.TrimPrefix(lines[1], "data: ")),
		})
	}
	return frames
}

func postTrace(t *testing.T, s *Server, req specio.TraceRequest) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evaltrace", bytes.NewReader(raw)))
	return rec
}

// normalizeTraceStream reassembles the stream with each data payload
// normalized like the response goldens: floats rounded to 9
// significant digits, wall_ns zeroed, and the (verified non-empty)
// state base64 masked.
func normalizeTraceStream(t *testing.T, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, fr := range parseSSE(t, body) {
		var v map[string]any
		if err := json.Unmarshal(fr.data, &v); err != nil {
			t.Fatalf("frame data not JSON: %v\n%s", err, fr.data)
		}
		if cp, ok := v["checkpoint"].(map[string]any); ok {
			state, _ := cp["state"].(string)
			if state == "" {
				t.Fatalf("include_state checkpoint missing state:\n%s", fr.data)
			}
			cp["state"] = "<base64 state>"
		}
		if _, ok := v["wall_ns"]; ok {
			v["wall_ns"] = 0
		}
		roundFloats(t, v)
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString("event: " + fr.event + "\n")
		out.WriteString("data: " + string(data) + "\n\n")
	}
	return out.Bytes()
}

// roundFloats rounds every float in place to 9 significant digits
// (same policy as normalizeResponse).
func roundFloats(t *testing.T, v map[string]any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	norm := normalizeResponse(t, raw)
	clear(v)
	if err := json.Unmarshal(norm, &v); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTraceStream pins the SSE framing and event schema: one
// checkpoint frame per segment (with resumable state), one done frame,
// nothing else, in order.
func TestGoldenTraceStream(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	rec := postTrace(t, s, traceTestRequest())
	if rec.Code != 200 {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	if !rec.Flushed {
		t.Fatal("stream was never flushed")
	}
	frames := parseSSE(t, rec.Body.Bytes())
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 3 checkpoints + done", len(frames))
	}
	for i := 0; i < 3; i++ {
		if frames[i].event != specio.TraceEventCheckpoint {
			t.Fatalf("frame %d is %q, want checkpoint", i, frames[i].event)
		}
	}
	if frames[3].event != specio.TraceEventDone {
		t.Fatalf("terminal frame is %q, want done", frames[3].event)
	}
	goldenCompare(t, "response_trace.golden.sse", normalizeTraceStream(t, rec.Body.Bytes()))
}

// TestTraceResumeOverHTTP replays a trace from its first streamed
// checkpoint and asserts the remaining checkpoints (state included)
// are byte-identical to the uninterrupted stream's — the bitwise
// resume contract, end to end over the wire.
func TestTraceResumeOverHTTP(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	req := traceTestRequest()
	full := parseSSE(t, postTrace(t, s, req).Body.Bytes())
	if len(full) != 4 {
		t.Fatalf("full run: %d frames", len(full))
	}
	var first specio.TraceEvent
	if err := json.Unmarshal(full[0].data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Checkpoint == nil || first.Checkpoint.State == "" {
		t.Fatalf("first checkpoint carries no state: %s", full[0].data)
	}
	req.ResumeFrom = first.Checkpoint
	resumed := parseSSE(t, postTrace(t, s, req).Body.Bytes())
	if len(resumed) != 3 {
		t.Fatalf("resumed run: %d frames, want 2 checkpoints + done", len(resumed))
	}
	for i, fr := range resumed[:2] {
		var want, got specio.TraceEvent
		if err := json.Unmarshal(full[i+1].data, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fr.data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Checkpoint.State != want.Checkpoint.State {
			t.Errorf("resumed checkpoint %d state differs from uninterrupted run", got.Segment)
		}
		if got.PeakT != want.PeakT || got.TimeS != want.TimeS {
			t.Errorf("resumed checkpoint %d peak/time differ: %+v vs %+v", got.Segment, got, want)
		}
	}
}

// TestTraceClientDisconnectMidStream runs a long trace over real HTTP,
// drops the client after the first checkpoint, and asserts the server
// cancels the solve, drains cleanly, and leaks no goroutines.
func TestTraceClientDisconnectMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{SolverWorkers: 1})
	ts := httptest.NewServer(s)

	req := specio.TraceRequest{
		Stack:  testStack(2, 16, 20),
		Solver: specio.SolverJSON{Precond: "zline"},
	}
	// Long tail: enough work after the first checkpoint that an
	// uncancelled solve would outlive the drain deadline below.
	req.Segments = append(req.Segments, specio.TraceSegmentJSON{DtS: 1e-4, Steps: 2})
	for i := 0; i < 64; i++ {
		req.Segments = append(req.Segments, specio.TraceSegmentJSON{DtS: 1e-4, Steps: 100})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/evaltrace", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	// Read through the first complete frame, then hang up.
	br := bufio.NewReader(resp.Body)
	sawData := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			sawData = true
		}
		if sawData && line == "\n" {
			break
		}
	}
	resp.Body.Close()

	// The drain must complete promptly: the dropped connection cancels
	// the request context, which cancels the solve.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after client disconnect: %v", err)
	}
	ts.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestTraceDeadlineExpiryMidStream pins the terminal frame on deadline
// expiry: HTTP 200 (the stream already started), zero or more complete
// checkpoint frames, then exactly one well-formed error event naming
// the deadline.
func TestTraceDeadlineExpiryMidStream(t *testing.T) {
	s := New(Config{
		SolverWorkers:  1,
		DefaultTimeout: 50 * time.Millisecond, MaxTimeout: 50 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())
	req := specio.TraceRequest{
		Stack:  testStack(2, 16, 20),
		Solver: specio.SolverJSON{Precond: "zline"},
	}
	for i := 0; i < 8; i++ {
		req.Segments = append(req.Segments, specio.TraceSegmentJSON{DtS: 1e-4, Steps: 1000})
	}
	rec := postTrace(t, s, req)
	if rec.Code != 200 {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	frames := parseSSE(t, rec.Body.Bytes())
	if len(frames) == 0 {
		t.Fatal("no frames at all")
	}
	last := frames[len(frames)-1]
	if last.event != specio.TraceEventError {
		t.Fatalf("terminal frame is %q, want error:\n%s", last.event, rec.Body.Bytes())
	}
	for _, fr := range frames[:len(frames)-1] {
		if fr.event != specio.TraceEventCheckpoint {
			t.Fatalf("non-terminal frame is %q", fr.event)
		}
	}
	var ev specio.TraceEvent
	if err := json.Unmarshal(last.data, &ev); err != nil {
		t.Fatalf("terminal error frame is not well-formed JSON: %v\n%s", err, last.data)
	}
	if !strings.Contains(ev.Error, "deadline") {
		t.Fatalf("error %q does not name the deadline", ev.Error)
	}
	if ev.Segments != len(req.Segments) {
		t.Fatalf("terminal frame segments %d, want %d", ev.Segments, len(req.Segments))
	}
}

// TestTraceRejects pins the pre-stream failure shapes: bad JSON and
// bad schedules answer plain-JSON 400s (no SSE headers), and a
// draining server sheds with 503.
func TestTraceRejects(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evaltrace", strings.NewReader("{not json")))
	if rec.Code != 400 {
		t.Fatalf("bad JSON: HTTP %d", rec.Code)
	}
	req := traceTestRequest()
	req.Segments[0].DtS = -1
	if rec := postTrace(t, s, req); rec.Code != 400 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("bad schedule: HTTP %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	s.Shutdown(context.Background())
	if rec := postTrace(t, s, traceTestRequest()); rec.Code != 503 {
		t.Fatalf("draining: HTTP %d", rec.Code)
	}
}
