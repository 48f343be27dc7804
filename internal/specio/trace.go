package specio

// Trace evaluation schema: POST /v1/evaltrace drives a power schedule
// through the transient solver and streams peak-T checkpoints back as
// Server-Sent Events while segments complete. Each segment re-paints
// the base power description (scale × base map, plus per-segment
// power blocks) for its share of the timeline, so a trace is the
// dynamic sibling of /v1/evalbatch: one assembled operator, K
// right-hand sides — ordered in time instead of independent.
//
// Checkpoints are resumable: a checkpoint event (with include_state)
// carries the exact temperature field base64-encoded from its IEEE-754
// bits, and a follow-up request presenting it as resume_from continues
// the trace bitwise identically to the uninterrupted run (the solver's
// checkpoint determinism contract, DESIGN.md §13).

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/telemetry"
)

const (
	// TraceMaxSegments bounds the segments of one trace request.
	TraceMaxSegments = 256
	// TraceMaxTotalSteps bounds the total backward-Euler steps of one
	// trace request — a request is one bounded unit of work.
	TraceMaxTotalSteps = EvalMaxSteps
)

// TraceSegmentJSON is one piece of the power schedule. The segment's
// power is always defined against the BASE request (never the
// previous segment): effective map = base map × power_scale, plus the
// segment's power_blocks painted on top. An all-default segment
// replays the base power unchanged.
type TraceSegmentJSON struct {
	DtS   float64 `json:"dt_s"`
	Steps int     `json:"steps"`
	// PowerScale multiplies the base power map for this segment.
	// Omitted (nil) means 1; the canonical form is explicit. Zero is
	// legal — an idle segment.
	PowerScale *float64 `json:"power_scale,omitempty"`
	// PowerBlocks paints additional density (additive W/cm²) onto the
	// scaled base map for this segment only.
	PowerBlocks []PowerBlock `json:"power_blocks,omitempty"`
}

// TraceCheckpointJSON is the wire form of a resume point: emitted in
// checkpoint events (state present only when the request set
// include_state) and accepted back as resume_from.
type TraceCheckpointJSON struct {
	// Segment counts fully integrated segments; resuming starts at
	// segments[segment].
	Segment int     `json:"segment"`
	TimeS   float64 `json:"time_s"`
	// PeakT is the maximum cell temperature observed at any step
	// boundary during the segment (K).
	PeakT telemetry.Float `json:"peak_t_k"`
	// State is the temperature field: base64 (std encoding) of the
	// little-endian IEEE-754 bits of each cell, in cell index order.
	// Exact by construction — resume is bitwise, not approximate.
	State string `json:"state,omitempty"`
}

// TraceRequest is the /v1/evaltrace request schema.
type TraceRequest struct {
	Stack       StackJSON          `json:"stack"`
	PowerBlocks []PowerBlock       `json:"power_blocks,omitempty"`
	Solver      SolverJSON         `json:"solver"`
	Segments    []TraceSegmentJSON `json:"segments"`
	// IncludeState asks for the serialized field in every checkpoint
	// event, enabling resume. Off by default — the field is the bulky
	// part of a checkpoint.
	IncludeState bool `json:"include_state,omitempty"`
	// ResumeFrom continues a previous run of the SAME stack and
	// schedule from one of its checkpoints (state required).
	ResumeFrom *TraceCheckpointJSON `json:"resume_from,omitempty"`
}

// Trace event types streamed over SSE.
const (
	// TraceEventCheckpoint is emitted as each segment completes.
	TraceEventCheckpoint = "checkpoint"
	// TraceEventDone terminates a successful stream.
	TraceEventDone = "done"
	// TraceEventError terminates a failed stream (solver error,
	// deadline expiry, shutdown) — always well-formed JSON, so a
	// client never has to parse a torn frame.
	TraceEventError = "error"
)

// TraceEvent is the JSON payload of one SSE frame.
type TraceEvent struct {
	// Segment counts fully integrated segments so far.
	Segment int `json:"segment"`
	// Segments is the schedule length (so clients can render progress).
	Segments int     `json:"segments"`
	TimeS    float64 `json:"time_s"`
	// PeakT: for checkpoint events, the segment's peak; for done, the
	// peak over the whole run.
	PeakT telemetry.Float `json:"peak_t_k"`
	// Checkpoint carries the resumable state on checkpoint events when
	// the request set include_state.
	Checkpoint *TraceCheckpointJSON `json:"checkpoint,omitempty"`
	// Steps (done only) counts integrated steps this run.
	Steps int `json:"steps,omitempty"`
	// WallNS (done/error) is the stream wall-clock.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Error (error events) is the failure description.
	Error string `json:"error,omitempty"`
}

// ParseTrace decodes a raw trace request, rejecting unknown fields.
func ParseTrace(raw []byte) (TraceRequest, error) {
	var req TraceRequest
	if err := unmarshalStrictish(raw, &req); err != nil {
		return TraceRequest{}, fmt.Errorf("specio: %w", err)
	}
	return req, nil
}

// MarshalTrace renders a trace request as indented JSON.
func MarshalTrace(r TraceRequest) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ExampleTrace returns a ready-to-POST trace: the example stack under
// a burst/idle/burst power schedule with resumable checkpoints.
func ExampleTrace() TraceRequest {
	one, idle, burst := 1.0, 0.2, 1.8
	return TraceRequest{
		Stack:  Example(),
		Solver: SolverJSON{Precond: "multigrid", TimeoutMS: 60000},
		Segments: []TraceSegmentJSON{
			{DtS: 1e-4, Steps: 20, PowerScale: &burst},
			{DtS: 1e-4, Steps: 20, PowerScale: &idle},
			{DtS: 1e-4, Steps: 20, PowerScale: &one,
				PowerBlocks: []PowerBlock{{X0: 6, Y0: 6, X1: 10, Y1: 10, DensityWPerCm2: 40}}},
		},
		IncludeState: true,
	}
}

// Normalize validates the trace request and returns its canonical
// form: the embedded base request normalized exactly as /v1/eval
// would (defaults explicit, base power blocks rasterized), segment
// defaults made explicit, and the resume state checked against the
// grid. Idempotent.
func (r TraceRequest) Normalize() (TraceRequest, error) {
	base := EvalRequest{Stack: r.Stack, PowerBlocks: r.PowerBlocks, Solver: r.Solver}
	nb, err := base.Normalize()
	if err != nil {
		return TraceRequest{}, err
	}
	out := r
	out.Stack, out.PowerBlocks, out.Solver = nb.Stack, nb.PowerBlocks, nb.Solver
	if len(r.Segments) == 0 {
		return TraceRequest{}, fmt.Errorf("specio: trace has no segments")
	}
	if len(r.Segments) > TraceMaxSegments {
		return TraceRequest{}, fmt.Errorf("specio: trace has %d segments, max %d", len(r.Segments), TraceMaxSegments)
	}
	nx, ny := out.Stack.NX, out.Stack.NY
	total := 0
	segs := make([]TraceSegmentJSON, len(r.Segments))
	for i, seg := range r.Segments {
		if !(seg.DtS > 0) || math.IsInf(seg.DtS, 0) {
			return TraceRequest{}, fmt.Errorf("specio: trace segment %d has bad dt_s %g", i, seg.DtS)
		}
		if seg.Steps < 1 {
			return TraceRequest{}, fmt.Errorf("specio: trace segment %d has bad steps %d", i, seg.Steps)
		}
		total += seg.Steps
		if total > TraceMaxTotalSteps {
			return TraceRequest{}, fmt.Errorf("specio: trace exceeds %d total steps", TraceMaxTotalSteps)
		}
		scale := 1.0
		if seg.PowerScale != nil {
			scale = *seg.PowerScale
		}
		if !(scale >= 0) || math.IsInf(scale, 0) {
			return TraceRequest{}, fmt.Errorf("specio: trace segment %d has bad power_scale %g", i, scale)
		}
		for bi, b := range seg.PowerBlocks {
			if b.X0 < 0 || b.Y0 < 0 || b.X1 > nx || b.Y1 > ny || b.X0 >= b.X1 || b.Y0 >= b.Y1 {
				return TraceRequest{}, fmt.Errorf("specio: trace segment %d power block %d [%d,%d)x[%d,%d) outside grid %dx%d",
					i, bi, b.X0, b.X1, b.Y0, b.Y1, nx, ny)
			}
			if !(b.DensityWPerCm2 >= 0) || math.IsInf(b.DensityWPerCm2, 0) {
				return TraceRequest{}, fmt.Errorf("specio: trace segment %d power block %d has bad density %g", i, bi, b.DensityWPerCm2)
			}
		}
		norm := seg
		norm.PowerScale = &scale
		segs[i] = norm
	}
	out.Segments = segs
	if cp := r.ResumeFrom; cp != nil {
		c := *cp
		if c.Segment < 0 || c.Segment > len(segs) {
			return TraceRequest{}, fmt.Errorf("specio: resume_from segment %d outside schedule of %d segments", c.Segment, len(segs))
		}
		if !(c.TimeS >= 0) || math.IsInf(c.TimeS, 0) {
			return TraceRequest{}, fmt.Errorf("specio: resume_from has bad time_s %g", c.TimeS)
		}
		if c.State == "" {
			return TraceRequest{}, fmt.Errorf("specio: resume_from requires state")
		}
		out.ResumeFrom = &c
	}
	return out, nil
}

// TraceEval is a fully built, runnable trace: the base Eval (problem,
// layout, solver controls) plus the per-segment solver schedule and
// the decoded resume checkpoint.
type TraceEval struct {
	Req      TraceRequest // normalized
	Base     *Eval
	Segments []solver.TraceSegment
	Resume   *solver.TraceCheckpoint
}

// BuildTrace normalizes and validates a trace request and assembles
// the solver problem plus the per-segment source fields. Each
// segment's field is built exactly as a /v1/eval request with that
// segment's power description would be — scale applied to the
// normalized base map, segment blocks painted on top — so segment
// semantics never drift from the single-shot endpoint's.
func BuildTrace(r TraceRequest) (*TraceEval, error) {
	norm, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	base := EvalRequest{Stack: norm.Stack, PowerBlocks: norm.PowerBlocks, Solver: norm.Solver}
	bev, err := BuildEval(base)
	if err != nil {
		return nil, err
	}
	n := bev.Problem.Grid.NumCells()
	te := &TraceEval{Req: norm, Base: bev, Segments: make([]solver.TraceSegment, len(norm.Segments))}
	for i, seg := range norm.Segments {
		q, err := segmentSources(bev, norm.Stack, seg)
		if err != nil {
			return nil, fmt.Errorf("specio: trace segment %d: %w", i, err)
		}
		te.Segments[i] = solver.TraceSegment{Dt: seg.DtS, Steps: seg.Steps, Q: q}
	}
	if cp := norm.ResumeFrom; cp != nil {
		field, err := DecodeTraceState(cp.State, n)
		if err != nil {
			return nil, fmt.Errorf("specio: resume_from: %w", err)
		}
		te.Resume = &solver.TraceCheckpoint{
			Segment: cp.Segment,
			Time:    cp.TimeS,
			PeakT:   float64(cp.PeakT),
			T:       field,
		}
	}
	return te, nil
}

// segmentSources builds one segment's volumetric source field: the
// sources of its segmentRequest, painted onto the base problem's
// geometry by CloneForPower (the same-family path the service's
// family-prefix memo uses) instead of a full BuildEval — geometry and
// materials are fixed by the base request, so the two differ only in
// cost (TestBuildTraceSegmentSources pins them bitwise).
func segmentSources(base *Eval, stackNorm StackJSON, seg TraceSegmentJSON) ([]float64, error) {
	derived, ok := segmentRequest(base, stackNorm, seg)
	if !ok {
		// The base problem's own sources, verbatim.
		return append([]float64(nil), base.Problem.Q...), nil
	}
	dev, err := base.CloneForPower(derived)
	if err != nil {
		return nil, err
	}
	return dev.Problem.Q, nil
}

// segmentRequest returns the /v1/eval request whose power a segment
// describes: the normalized base power map scaled, with the segment's
// blocks painted on top. ok is false for a segment that keeps the
// base power unchanged (scale 1, no blocks).
func segmentRequest(base *Eval, stackNorm StackJSON, seg TraceSegmentJSON) (req EvalRequest, ok bool) {
	scale := 1.0
	if seg.PowerScale != nil {
		scale = *seg.PowerScale
	}
	if scale == 1 && len(seg.PowerBlocks) == 0 {
		return EvalRequest{}, false
	}
	sj := stackNorm
	pm := make([]float64, len(sj.PowerMap))
	if len(pm) == 0 {
		// The normalized base had no explicit map (no base blocks):
		// scale the uniform density and rasterize from there.
		pm = make([]float64, sj.NX*sj.NY)
		for i := range pm {
			pm[i] = sj.UniformPower
		}
	} else {
		copy(pm, sj.PowerMap)
	}
	for i := range pm {
		pm[i] *= scale
	}
	sj.PowerMap = pm
	sj.UniformPower = 0
	return EvalRequest{Stack: sj, PowerBlocks: seg.PowerBlocks, Solver: base.Req.Solver}, true
}

// EncodeTraceState serializes a temperature field for a checkpoint:
// base64 of the little-endian IEEE-754 bits in cell order. The
// round-trip through DecodeTraceState is exact.
func EncodeTraceState(t []float64) string {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodeTraceState deserializes a checkpoint field, checking the
// length against the grid and rejecting non-finite temperatures (a
// NaN seed would silently poison every later step).
func DecodeTraceState(s string, n int) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bad state encoding: %w", err)
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("state has %d bytes, want %d (%d cells)", len(buf), 8*n, n)
	}
	out := make([]float64, n)
	for i := range out {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("state has non-finite temperature at cell %d", i)
		}
		out[i] = v
	}
	return out, nil
}
