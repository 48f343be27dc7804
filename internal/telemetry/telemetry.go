// Package telemetry collects solver and pipeline observability data:
// per-solve residual traces, per-phase wall-clock timers, and counters
// (solves, iterations, warm-start hits). A Collector is purely
// observational — it records what the solvers did and never feeds
// anything back into the numerics, so attaching one cannot perturb
// the bitwise-determinism guarantees of internal/parallel and
// internal/solver (the equivalence suite pins this down by solving
// with and without a collector attached).
//
// Every method is safe on a nil *Collector (it does nothing), so call
// sites do not need nil guards; hot loops should still hoist the nil
// check out of the loop when the per-iteration work would otherwise
// allocate. Collectors are safe for concurrent use.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// Counter names used by the solve pipeline. Callers may add their own
// names; these are the ones internal/solver maintains.
const (
	// CounterSolves counts solve attempts (steady PCG and per-step
	// transient solves), including failed ones.
	CounterSolves = "solves"
	// CounterIterations accumulates inner iterations across all solves.
	CounterIterations = "iterations"
	// CounterWarmStarts counts solves seeded with an InitialGuess —
	// the cache-warm-start hits of the placement and sweep loops.
	CounterWarmStarts = "warm_start_hits"
	// CounterRCEvals counts reduced-order (RC tier) evaluations —
	// the rc fidelity answers of the service and thermsim.
	CounterRCEvals = "rc_evals"
	// CounterTraceStreams counts /v1/evaltrace streams started.
	CounterTraceStreams = "trace_streams"
	// CounterTraceCheckpoints counts checkpoint events emitted across
	// all trace streams.
	CounterTraceCheckpoints = "trace_checkpoints"
	// CounterPeerHits counts cluster-mode cache lookups answered by the
	// owning peer (the fetched entry is bitwise identical to the solve
	// that filled it).
	CounterPeerHits = "peer_hits"
	// CounterPeerMisses counts peer lookups the owner answered with a
	// clean 404 — the key was simply not cached anywhere yet.
	CounterPeerMisses = "peer_misses"
	// CounterPeerHedges counts hedge requests fired because the primary
	// peer fetch had not answered within the hedge delay.
	CounterPeerHedges = "peer_hedges"
	// CounterPeerFallbacks counts peer fetches abandoned on error or
	// timeout — the request degraded to a local solve instead of
	// failing.
	CounterPeerFallbacks = "peer_fallbacks"
	// CounterPeerFills counts cache entries pushed to their owning peer
	// after a local solve.
	CounterPeerFills = "peer_fills"
	// CounterFamilyAssemblyHits counts solves that found their
	// operator family already assembled in the engine's family cache
	// and skipped assembly + preconditioner-hierarchy setup.
	CounterFamilyAssemblyHits = "family_assembly_hits"
	// CounterFamilyAssemblyMisses counts solves whose family key was
	// not cached yet — they paid the one assembly that later solves
	// in the family reuse.
	CounterFamilyAssemblyMisses = "family_assembly_misses"
	// CounterBatchWindowFlushes counts batching-window flushes: groups
	// of same-family cold misses executed as one multi-RHS batch (a
	// lone request flushing solo also counts one).
	CounterBatchWindowFlushes = "batch_window_flushes"
	// CounterBatchWindowOccupancy accumulates the number of requests
	// carried by all window flushes; occupancy/flushes is the mean
	// batch size the window achieved.
	CounterBatchWindowOccupancy = "batch_window_occupancy"
	// CounterThrottleEvents counts DTM throttle engagements — segments
	// where the controller cut block power because the predicted peak
	// crossed the trip threshold.
	CounterThrottleEvents = "throttle_events"
	// CounterViolationSteps counts integration steps whose peak
	// temperature exceeded the thermal limit — the DTM loop's
	// constraint-violation time in step units.
	CounterViolationSteps = "violation_steps"
)

// Float is a float64 that marshals non-finite values as JSON null —
// encoding/json rejects NaN/±Inf outright, and a diverged solve's
// residual is exactly the value a failure report must still carry.
type Float float64

// MarshalJSON emits null for NaN and ±Inf.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON reads null back as NaN.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Floats converts a residual history for a SolveTrace.
func Floats(v []float64) []Float {
	if v == nil {
		return nil
	}
	out := make([]Float, len(v))
	for i, x := range v {
		out[i] = Float(x)
	}
	return out
}

// SolveTrace records one solve, successful or not.
type SolveTrace struct {
	// Method is the inner iteration: "pcg", "transient", …
	Method string `json:"method"`
	// Precond is the preconditioner that ran, in its flag spelling.
	Precond string `json:"precond,omitempty"`
	Workers int    `json:"workers"`
	// Cells is the unknown count of the linear system.
	Cells      int   `json:"cells"`
	Iterations int   `json:"iterations"`
	Residual   Float `json:"residual"`
	Converged  bool  `json:"converged"`
	// Failure carries the ConvergenceError reason when !Converged.
	Failure string `json:"failure,omitempty"`
	// WarmStart reports whether the solve was seeded with an
	// InitialGuess.
	WarmStart bool `json:"warm_start"`
	// Residuals is the per-iteration relative residual trace.
	Residuals []Float `json:"residuals,omitempty"`
	// WallNS is the solve wall-clock in nanoseconds (volatile — run
	// reports normalize or ignore it when compared).
	WallNS int64 `json:"wall_ns"`
}

// PhaseTiming aggregates the wall-clock of one named pipeline phase.
type PhaseTiming struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
}

// Report is the machine-readable run summary emitted by the CLIs'
// -report flag.
type Report struct {
	Tool     string           `json:"tool,omitempty"`
	Args     []string         `json:"args,omitempty"`
	Counters map[string]int64 `json:"counters"`
	Phases   []PhaseTiming    `json:"phases,omitempty"`
	Solves   []SolveTrace     `json:"solves,omitempty"`
}

// Collector aggregates counters, phase timings, and solve traces.
// The zero value is not usable; call New.
type Collector struct {
	mu       sync.Mutex
	counters map[string]int64
	phases   map[string]*PhaseTiming
	order    []string // phase first-seen order
	solves   []SolveTrace
	maxTrace int
	dropped  int64
}

// DefaultMaxTraces bounds the retained per-solve traces; older solves
// beyond the bound are counted but their traces dropped (sweeps run
// thousands of solves — the report should not grow without bound).
const DefaultMaxTraces = 512

// New returns an empty collector retaining up to DefaultMaxTraces
// solve traces.
func New() *Collector {
	return &Collector{
		counters: map[string]int64{},
		phases:   map[string]*PhaseTiming{},
		maxTrace: DefaultMaxTraces,
	}
}

// SetMaxTraces adjusts the solve-trace retention bound (≤ 0 keeps
// every trace).
func (c *Collector) SetMaxTraces(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.maxTrace = n
	c.mu.Unlock()
}

// Add increments a named counter.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Counter returns the current value of a named counter.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Phase starts a named wall-clock phase and returns its stop
// function. Phases with the same name aggregate (count + total time).
// Usage: defer tel.Phase("fig9")().
func (c *Collector) Phase(name string) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		c.mu.Lock()
		p := c.phases[name]
		if p == nil {
			p = &PhaseTiming{Name: name}
			c.phases[name] = p
			c.order = append(c.order, name)
		}
		p.Count++
		p.WallNS += d.Nanoseconds()
		c.mu.Unlock()
	}
}

// RecordSolve appends one solve trace, subject to the retention bound.
func (c *Collector) RecordSolve(t SolveTrace) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.maxTrace > 0 && len(c.solves) >= c.maxTrace {
		c.dropped++
	} else {
		c.solves = append(c.solves, t)
	}
	c.mu.Unlock()
}

// Report snapshots the collector into a run report. Counters are
// copied; phases keep first-seen order; a "traces_dropped" counter is
// added when the retention bound truncated the solve list.
func (c *Collector) Report(tool string, args []string) *Report {
	r := &Report{Tool: tool, Args: args, Counters: map[string]int64{}}
	if c == nil {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range c.counters {
		r.Counters[k] = v
	}
	if c.dropped > 0 {
		r.Counters["traces_dropped"] = c.dropped
	}
	for _, name := range c.order {
		r.Phases = append(r.Phases, *c.phases[name])
	}
	r.Solves = append([]SolveTrace(nil), c.solves...)
	return r
}

// WriteJSON marshals the report with stable key order (counters are a
// map; encoding/json sorts map keys) and a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReportFile writes the collector's report to path ("-" means
// stdout).
func (c *Collector) WriteReportFile(path, tool string, args []string) error {
	r := c.Report(tool, args)
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: %w", err)
	}
	return f.Close()
}
