package solver

// Trace-driven transient evaluation: a power schedule — K segments of
// (source field, Δt, step count) — integrated through one pinned
// Transient, with a serializable checkpoint emitted as each segment
// completes. This is the MFIT-style workload family: the paper's
// 125 °C headline constraint is a dynamic question, and a trace is
// the unit a dynamic-thermal-management loop or a streaming service
// replays against the compact model.
//
// Single-assembly reuse: the whole trace shares one assembled
// operator, one worker pool, and (per Δt) one preconditioner — the
// SolveSteadyBatch economics applied in time instead of across RHS.
// Only the right-hand side changes step to step, and only the
// Δt-dependent augmented diagonal changes segment to segment (when a
// segment's Δt differs from its predecessor's).
//
// Checkpoint determinism contract: a trace interrupted after any
// segment and resumed from that segment's checkpoint produces
// bitwise-identical temperature fields to the uninterrupted run, at
// every worker count and precision tier. The contract holds because
// everything the integrator rebuilds on resume — augmented operator,
// preconditioner, worker-pool chunking — is a pure function
// of (Problem, Δt, Options), and the checkpoint carries the exact
// float64 state vector and clock. TestTraceResumeBitwiseIdentical
// pins this under `make equivalence`.

import (
	"fmt"
	"math"
)

// TraceSegment is one piece of a power schedule: Steps backward-Euler
// steps of Dt seconds under source field Q.
type TraceSegment struct {
	// Dt is the segment's time step (s); must be positive and finite.
	Dt float64
	// Steps is the number of backward-Euler steps; must be ≥ 1.
	Steps int
	// Q is the volumetric source field for the segment (W/m³, length
	// NumCells). nil keeps the sources already in effect — the
	// previous segment's field, or the Problem's own Q before the
	// first override. Resume resolves nil segments against the
	// schedule, never against integrator state, so the semantics are
	// identical whether or not the run was interrupted.
	Q []float64
}

// TraceCheckpoint is a serializable resume point captured after a
// completed segment. T is the exact temperature field (K) at the
// segment boundary; resuming from a checkpoint reproduces the
// uninterrupted run bit for bit.
type TraceCheckpoint struct {
	// Segment counts fully integrated segments: a resume starts at
	// segs[Segment].
	Segment int
	// Time is the integrator clock at the boundary (s).
	Time float64
	// PeakT is the maximum cell temperature observed at any step
	// boundary during the segment (K) — the periodic peak-T sample a
	// DTM loop or a streaming client watches against the 125 °C limit.
	PeakT float64
	// T is the temperature field at the segment boundary (K). Owned by
	// the checkpoint (copied out of the integrator).
	T []float64
}

// TraceOptions extends Options for trace runs.
type TraceOptions struct {
	// Resume, when non-nil, starts the trace at segs[Resume.Segment]
	// from the checkpoint's field and clock instead of at segment 0
	// from t0. The checkpoint must come from a run of the same problem
	// and schedule for the bitwise-resume contract to apply.
	Resume *TraceCheckpoint
	// OnCheckpoint, when non-nil, is called after each completed
	// segment with that segment's checkpoint. The checkpoint (and its
	// field) is owned by the callee. Returning an error aborts the
	// trace with that error — a streaming server uses this to stop
	// integrating for a disconnected client. Observational otherwise:
	// attaching a callback changes no computed value.
	OnCheckpoint func(cp *TraceCheckpoint) error
}

// TraceResult summarizes a completed trace run.
type TraceResult struct {
	// T is the final temperature field (K).
	T []float64
	// Time is the final integrator clock (s).
	Time float64
	// PeakT is the maximum cell temperature observed at any step
	// boundary across the run's integrated segments (K).
	PeakT float64
	// Steps counts the backward-Euler steps this run integrated
	// (excluding segments skipped by Resume).
	Steps int
}

// validateTrace checks a schedule against the problem size.
func validateTrace(n int, segs []TraceSegment) error {
	if len(segs) == 0 {
		return fmt.Errorf("solver: trace has no segments")
	}
	for i, seg := range segs {
		if !(seg.Dt > 0) || math.IsInf(seg.Dt, 0) {
			return fmt.Errorf("solver: trace segment %d has bad dt %g", i, seg.Dt)
		}
		if seg.Steps < 1 {
			return fmt.Errorf("solver: trace segment %d has bad step count %d", i, seg.Steps)
		}
		if seg.Q == nil {
			continue
		}
		if len(seg.Q) != n {
			return fmt.Errorf("solver: trace segment %d has %d source entries, want %d", i, len(seg.Q), n)
		}
		for c, v := range seg.Q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("solver: trace segment %d has invalid source at cell %d: %g", i, c, v)
			}
		}
	}
	return nil
}

// effectiveSources returns the source field in effect when segment
// start begins: the last non-nil override at or before start−1, or
// nil when no earlier segment overrides (the Problem's own Q). The
// resolution reads only the schedule, so an interrupted and a fresh
// run agree on it by construction.
func effectiveSources(segs []TraceSegment, start int) []float64 {
	for i := start - 1; i >= 0; i-- {
		if segs[i].Q != nil {
			return segs[i].Q
		}
	}
	return nil
}

// SolveTrace integrates the power schedule segs through p with
// backward Euler, starting from t0 (or topts.Resume), emitting a
// checkpoint per completed segment. One operator assembly, one worker
// pool, and one preconditioner per distinct Δt serve the whole trace;
// see the package comment above for the determinism contract.
//
// Cancellation: opts.Ctx is checked before every step (and per inner
// PCG iteration), so a cancelled trace stops within one solver
// iteration and the error unwraps to the context cause.
func SolveTrace(p *Problem, t0 []float64, segs []TraceSegment, opts Options, topts TraceOptions) (*TraceResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Grid.NumCells()
	if err := validateTrace(n, segs); err != nil {
		return nil, err
	}
	start := 0
	startField := t0
	startTime := 0.0
	if cp := topts.Resume; cp != nil {
		if cp.Segment < 0 || cp.Segment > len(segs) {
			return nil, fmt.Errorf("solver: resume checkpoint at segment %d outside schedule of %d segments", cp.Segment, len(segs))
		}
		if len(cp.T) != n {
			return nil, fmt.Errorf("solver: resume checkpoint field has %d entries, want %d", len(cp.T), n)
		}
		if !(cp.Time >= 0) || math.IsInf(cp.Time, 0) {
			return nil, fmt.Errorf("solver: resume checkpoint has bad time %g", cp.Time)
		}
		start = cp.Segment
		startField = cp.T
		startTime = cp.Time
		if start == len(segs) {
			// Nothing left to integrate: the checkpoint is the answer.
			return &TraceResult{
				T:     append([]float64(nil), cp.T...),
				Time:  cp.Time,
				PeakT: maxOf(cp.T),
			}, nil
		}
	}
	tr, err := NewTransient(p, startField, opts)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	tr.time = startTime
	if q := effectiveSources(segs, start); q != nil {
		if err := tr.SetSources(q); err != nil {
			return nil, err
		}
	}
	out := &TraceResult{PeakT: math.Inf(-1)}
	for s := start; s < len(segs); s++ {
		seg := segs[s]
		// A checkpoint carries only the field, so every segment starts
		// the predictor afresh, resumed or not.
		tr.resetHistory()
		if seg.Q != nil {
			if err := tr.SetSources(seg.Q); err != nil {
				return nil, err
			}
		}
		segPeak := math.Inf(-1)
		for st := 0; st < seg.Steps; st++ {
			if ctx := opts.Ctx; ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("solver: trace segment %d step %d: %w", s, st, err)
				}
			}
			if err := tr.Step(seg.Dt); err != nil {
				return nil, fmt.Errorf("solver: trace segment %d step %d: %w", s, st, err)
			}
			out.Steps++
			if pk := tr.MaxField(); pk > segPeak {
				segPeak = pk
			}
		}
		if segPeak > out.PeakT {
			out.PeakT = segPeak
		}
		if topts.OnCheckpoint != nil {
			cp := &TraceCheckpoint{
				Segment: s + 1,
				Time:    tr.Time(),
				PeakT:   segPeak,
				T:       tr.op.gridField(tr.cur),
			}
			if err := topts.OnCheckpoint(cp); err != nil {
				return nil, fmt.Errorf("solver: trace checkpoint %d: %w", s+1, err)
			}
		}
	}
	out.T = tr.Field()
	out.Time = tr.Time()
	return out, nil
}

// maxOf returns the maximum of a non-empty slice.
func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
