package specio

// Evaluation-service schema: the request/response JSON spoken by
// cmd/thermserve (internal/serve). A request wraps the existing stack
// schema with optional rectangular power blocks, solver controls, and
// an optional transient section; the response carries peak/mean
// temperature, the per-tier profile, and cache/coalescing telemetry.
//
// Normalization contract (the cache-key foundation, see DESIGN.md §9):
// Normalize applies every default explicitly and rasterizes power
// blocks into the power map, so requests that describe the same
// physical problem — reordered blocks, omitted-vs-explicit defaults,
// jacobi-vs-zline preconditioner — normalize to the same value and
// therefore hash to the same content address.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
)

// PowerBlock paints a rectangle of extra power density onto the base
// power map: cells [X0,X1)×[Y0,Y1), additive W/cm². Blocks are
// order-independent by construction (addition commutes), which the
// canonical-hash property tests pin down.
type PowerBlock struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
	// DensityWPerCm2 adds to every covered cell of every tier map.
	DensityWPerCm2 float64 `json:"w_per_cm2"`
}

// SolverJSON carries the per-request solver controls. Zero values
// select the service defaults (zline, 1e-7, 100000). TimeoutMS bounds
// the solve wall-clock; it shapes scheduling, not the solution, so it
// is excluded from the cache key.
type SolverJSON struct {
	Precond string  `json:"precond,omitempty"`
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	// Precision selects the preconditioner arithmetic tier: "f32", or
	// "f64" (the default — also accepted as "float64"/"float32"). The
	// canonical form of the default is the empty string, so requests
	// predating the field keep their content addresses.
	Precision string `json:"precision,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// TransientJSON selects a transient evaluation: Steps backward-Euler
// steps of DtS seconds from a uniform sink-ambient initial field.
type TransientJSON struct {
	DtS   float64 `json:"dt_s"`
	Steps int     `json:"steps"`
}

// Fidelity tiers of the evaluation ladder. FidelityFull is the exact
// FVM solve; FidelityRC is the certified reduced-order (aggregated
// RC network) tier — ~100× cheaper, answers carry a certified error
// bound instead of an iteration residual.
const (
	FidelityFull = "full"
	FidelityRC   = "rc"
)

// EvalRequest is the thermserve request schema.
type EvalRequest struct {
	Stack       StackJSON      `json:"stack"`
	PowerBlocks []PowerBlock   `json:"power_blocks,omitempty"`
	Solver      SolverJSON     `json:"solver"`
	Transient   *TransientJSON `json:"transient,omitempty"`
	// Fidelity selects the ladder tier: "full" (default) or "rc".
	Fidelity string `json:"fidelity,omitempty"`
}

// TierTemps is one tier's slice of the temperature profile.
type TierTemps struct {
	Tier  int             `json:"tier"`
	MaxT  telemetry.Float `json:"max_t_k"`
	MeanT telemetry.Float `json:"mean_t_k"`
}

// EvalResponse is the thermserve response schema. Temperature fields
// use telemetry.Float so a diverged solve's NaN/Inf marshals as JSON
// null — the same convention as the CLIs' -report output.
type EvalResponse struct {
	// Key is the canonical content address of the normalized problem.
	Key  string `json:"key"`
	Mode string `json:"mode"` // "steady" or "transient"
	// PeakT/MeanT are the domain peak and volume-weighted mean (K).
	PeakT      telemetry.Float `json:"peak_t_k"`
	MeanT      telemetry.Float `json:"mean_t_k"`
	Tiers      []TierTemps     `json:"tiers,omitempty"`
	Iterations int             `json:"iterations"`
	Residual   telemetry.Float `json:"residual"`
	// Cached/Coalesced report how the answer was produced: from the
	// content-addressed cache, or by piggybacking on an identical
	// in-flight solve. They never affect the numbers.
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	WallNS    int64  `json:"wall_ns"`
	Error     string `json:"error,omitempty"`
	// Fidelity marks reduced-order answers ("rc"); full-fidelity
	// responses omit it. BoundK is the rc tier's certified error bound
	// on PeakT (K): |peak_full − peak_rc| ≤ BoundK, guaranteed, not
	// estimated. For rc answers Residual carries the relative defect
	// ‖b−A·T‖/‖b‖ and Iterations is 0 (the reduced solve is direct).
	Fidelity string          `json:"fidelity,omitempty"`
	BoundK   telemetry.Float `json:"bound_k,omitempty"`
}

// MarshalEval renders a request as indented JSON.
func MarshalEval(r EvalRequest) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseEval decodes a raw request.
func ParseEval(raw []byte) (EvalRequest, error) {
	var req EvalRequest
	if err := unmarshalStrictish(raw, &req); err != nil {
		return EvalRequest{}, fmt.Errorf("specio: %w", err)
	}
	return req, nil
}

// ExampleEval returns a ready-to-POST request: the example stack with
// one hot block over its center.
func ExampleEval() EvalRequest {
	sj := Example()
	sj.Tiers = 4
	return EvalRequest{
		Stack: sj,
		PowerBlocks: []PowerBlock{
			{X0: 6, Y0: 6, X1: 10, Y1: 10, DensityWPerCm2: 40},
		},
		Solver: SolverJSON{Precond: "multigrid", TimeoutMS: 30000},
	}
}

// evalDefaults are the service-side solver defaults, matching the
// thermsim CLI so a spec evaluates identically over HTTP and locally.
const (
	evalDefaultTol     = 1e-7
	evalDefaultMaxIter = 100000
	// EvalMaxSteps bounds transient requests: a request is one
	// bounded unit of work, not an open-ended simulation.
	EvalMaxSteps = 10000
)

// Normalize validates the request and returns its canonical form:
// solver defaults made explicit, the jacobi→zline upgrade applied
// (matching stack.Solve), and power blocks rasterized into an
// explicit per-map power map with UniformPower folded in. Two
// requests describing the same problem normalize to equal values;
// Normalize is idempotent.
func (r EvalRequest) Normalize() (EvalRequest, error) {
	out := r
	s := &out.Solver
	switch s.Precond {
	case "":
		s.Precond = solver.ZLine.String()
	default:
		pc, err := solver.ParsePreconditioner(s.Precond)
		if err != nil {
			return EvalRequest{}, fmt.Errorf("specio: %w", err)
		}
		// Plain Jacobi is never right for a chip stack; stack.Solve
		// upgrades it, so the canonical form does too.
		if pc == solver.Jacobi {
			pc = solver.ZLine
		}
		s.Precond = pc.String()
	}
	prec, err := solver.ParsePrecision(s.Precision)
	if err != nil {
		return EvalRequest{}, fmt.Errorf("specio: %w", err)
	}
	// Canonical F64 is the empty string: requests written before the
	// precision field existed must keep hashing to the same address.
	if prec == solver.F64 {
		s.Precision = ""
	} else {
		s.Precision = prec.String()
	}
	if s.Tol == 0 {
		s.Tol = evalDefaultTol
	}
	if !(s.Tol > 0) || math.IsInf(s.Tol, 0) {
		return EvalRequest{}, fmt.Errorf("specio: bad solver tol %g", s.Tol)
	}
	if s.MaxIter == 0 {
		s.MaxIter = evalDefaultMaxIter
	}
	if s.MaxIter < 0 {
		return EvalRequest{}, fmt.Errorf("specio: negative max_iter %d", s.MaxIter)
	}
	if s.TimeoutMS < 0 {
		return EvalRequest{}, fmt.Errorf("specio: negative timeout_ms %d", s.TimeoutMS)
	}
	if out.Transient != nil {
		tr := *out.Transient
		if !(tr.DtS > 0) || math.IsInf(tr.DtS, 0) {
			return EvalRequest{}, fmt.Errorf("specio: bad transient dt_s %g", tr.DtS)
		}
		if tr.Steps < 1 || tr.Steps > EvalMaxSteps {
			return EvalRequest{}, fmt.Errorf("specio: transient steps %d outside [1, %d]", tr.Steps, EvalMaxSteps)
		}
		out.Transient = &tr
	}
	switch out.Fidelity {
	case "":
		out.Fidelity = FidelityFull
	case FidelityFull, FidelityRC:
	default:
		return EvalRequest{}, fmt.Errorf("specio: unknown fidelity %q (want %q or %q)", out.Fidelity, FidelityFull, FidelityRC)
	}
	if out.Fidelity == FidelityRC && out.Transient != nil {
		return EvalRequest{}, fmt.Errorf("specio: fidelity %q is steady-state only", FidelityRC)
	}
	if out.Stack.BEOL == "" {
		out.Stack.BEOL = "conventional"
	}
	if out.Stack.Sink == "" {
		out.Stack.Sink = "twophase"
	}
	if len(out.PowerBlocks) == 0 {
		return out, nil
	}
	nx, ny := out.Stack.NX, out.Stack.NY
	if nx <= 0 || ny <= 0 {
		return EvalRequest{}, fmt.Errorf("specio: bad grid %dx%d", nx, ny)
	}
	pm := make([]float64, nx*ny)
	switch {
	case len(out.Stack.PowerMap) == len(pm):
		copy(pm, out.Stack.PowerMap)
	case len(out.Stack.PowerMap) == 0:
		for i := range pm {
			pm[i] = out.Stack.UniformPower
		}
	default:
		return EvalRequest{}, fmt.Errorf("specio: power map has %d cells, want %d", len(out.Stack.PowerMap), nx*ny)
	}
	for bi, b := range out.PowerBlocks {
		if b.X0 < 0 || b.Y0 < 0 || b.X1 > nx || b.Y1 > ny || b.X0 >= b.X1 || b.Y0 >= b.Y1 {
			return EvalRequest{}, fmt.Errorf("specio: power block %d [%d,%d)x[%d,%d) outside grid %dx%d",
				bi, b.X0, b.X1, b.Y0, b.Y1, nx, ny)
		}
		if !(b.DensityWPerCm2 >= 0) || math.IsInf(b.DensityWPerCm2, 0) {
			return EvalRequest{}, fmt.Errorf("specio: power block %d has bad density %g", bi, b.DensityWPerCm2)
		}
		for j := b.Y0; j < b.Y1; j++ {
			for i := b.X0; i < b.X1; i++ {
				pm[j*nx+i] += b.DensityWPerCm2
			}
		}
	}
	out.Stack.PowerMap = pm
	out.Stack.UniformPower = 0
	out.PowerBlocks = nil
	return out, nil
}

// Eval is a fully built, solvable evaluation: the normalized request
// plus the assembled problem, its layout, and the resolved solver
// controls. internal/serve hashes Problem + the option fields below
// into the cache key.
type Eval struct {
	Req     EvalRequest // normalized
	Spec    *stack.Spec
	Problem *solver.Problem
	Layout  *stack.Layout
	Precond solver.Preconditioner
	// Precision is the preconditioner arithmetic tier; part of the
	// cache key (the f32 tier converges to the same tolerance but via
	// different iterates, so the two tiers are distinct answers).
	Precision solver.Precision
	Tol       float64
	MaxIter   int
	// Timeout is the client-requested deadline (0 = server default).
	// Deliberately not part of the cache key.
	Timeout time.Duration
}

// Steady reports whether the request is a steady-state solve.
func (e *Eval) Steady() bool { return e.Req.Transient == nil }

// RC reports whether the request selects the reduced-order tier.
func (e *Eval) RC() bool { return e.Req.Fidelity == FidelityRC }

// Mode returns the response mode string.
func (e *Eval) Mode() string {
	if e.Steady() {
		return "steady"
	}
	return "transient"
}

// InitialField returns the transient initial condition: a uniform
// field at the sink ambient temperature.
func (e *Eval) InitialField() []float64 {
	t0 := make([]float64, e.Problem.Grid.NumCells())
	amb := e.Spec.Sink.Ambient()
	for i := range t0 {
		t0[i] = amb
	}
	return t0
}

// BuildEval normalizes and validates a request and assembles the
// solver problem.
func BuildEval(r EvalRequest) (*Eval, error) {
	norm, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	spec, err := Build(norm.Stack)
	if err != nil {
		return nil, err
	}
	p, lay, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	pc, err := solver.ParsePreconditioner(norm.Solver.Precond)
	if err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	prec, err := solver.ParsePrecision(norm.Solver.Precision)
	if err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	return &Eval{
		Req:       norm,
		Spec:      spec,
		Problem:   p,
		Layout:    lay,
		Precond:   pc,
		Precision: prec,
		Tol:       norm.Solver.Tol,
		MaxIter:   norm.Solver.MaxIter,
		Timeout:   time.Duration(norm.Solver.TimeoutMS) * time.Millisecond,
	}, nil
}

// CloneForPower builds the Eval of a request that differs from e at
// most in its power fields (uniform power, power map, power blocks —
// same family), reusing e's assembled geometry: the mesh, material,
// boundary, and layout arrays are shared, and only the source field
// is validated and painted. Bitwise identical to BuildEval(r) —
// pinned by TestCloneForPower — at a fraction of the cost, which is
// what lets a serving cold-miss storm over one family skip per-request
// problem assembly. The caller is responsible for the same-family
// precondition; a request that violates it gets a problem whose
// non-source fields are e's, not its own.
func (e *Eval) CloneForPower(r EvalRequest) (*Eval, error) {
	norm, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	spec, err := Build(norm.Stack)
	if err != nil {
		return nil, err
	}
	p := e.Problem.CloneBlankSources()
	if err := spec.PaintSources(p, e.Layout); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	ne := *e
	ne.Req = norm
	ne.Spec = spec
	ne.Problem = p
	// Timeout is scheduling-only and excluded from family addressing,
	// so it can differ within a family.
	ne.Timeout = time.Duration(norm.Solver.TimeoutMS) * time.Millisecond
	return &ne, nil
}

// TierProfile computes the per-tier device-layer profile of a solved
// field: max and volume-weighted mean over each tier's device layers.
func (e *Eval) TierProfile(field []float64) []TierTemps {
	g := e.Layout.Grid
	out := make([]TierTemps, len(e.Layout.DeviceLayers))
	for t, layers := range e.Layout.DeviceLayers {
		maxT := math.Inf(-1)
		var sum, vol float64
		for _, k := range layers {
			for j := 0; j < g.NY(); j++ {
				for i := 0; i < g.NX(); i++ {
					v := g.Volume(i, j, k)
					x := field[g.Index(i, j, k)]
					if x > maxT {
						maxT = x
					}
					sum += x * v
					vol += v
				}
			}
		}
		mean := math.NaN()
		if vol > 0 {
			mean = sum / vol
		}
		out[t] = TierTemps{Tier: t, MaxT: telemetry.Float(maxT), MeanT: telemetry.Float(mean)}
	}
	return out
}

// FieldStats returns the domain peak and volume-weighted mean (K).
func (e *Eval) FieldStats(field []float64) (peak, mean float64) {
	g := e.Layout.Grid
	peak = math.Inf(-1)
	var sum, vol float64
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				v := g.Volume(i, j, k)
				x := field[g.Index(i, j, k)]
				if x > peak {
					peak = x
				}
				sum += x * v
				vol += v
			}
		}
	}
	return peak, sum / vol
}

// unmarshalStrictish decodes JSON, rejecting unknown fields — a
// mistyped field name in a request should be a 400, not a silently
// ignored knob.
func unmarshalStrictish(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
