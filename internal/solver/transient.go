package solver

import (
	"errors"
	"fmt"
	"math"
	"runtime"
)

// Transient integrates ρc ∂T/∂t = ∇·(K∇T) + q with backward Euler.
// Each step solves (C/Δt + A)·Tⁿ⁺¹ = (C/Δt)·Tⁿ + b, reusing the
// steady operator with an augmented diagonal; unconditional
// stability lets the scheduling studies take large steps. The inner
// PCG solve of every step runs on Options.Workers goroutines with
// the same determinism contract as SolveSteady (Workers is resolved
// once, at NewTransient time).
//
// Hot-path reuse: the integrator runs on a family entry (the
// engine's cached one under Options.FamilyKey, else a private one;
// see family.go) and leases one augmented system — matrix buffers,
// kern and preconditioner — per Δt from it, so stepping
// allocates no pools, no PCG work vectors (the kern owns them) and,
// at a fixed Δt, no preconditioners: W−1 goroutine launches plus a
// preconditioner construction per step would dwarf the parallel
// speedup of the solve itself. The augmented matrix depends only on
// (A, C, Δt), so a Δt seen before — by this integrator or, on a
// cached entry, by any earlier trace in the family — reuses its
// context; SetSources touches only the right-hand side. All reuse is
// bitwise neutral — every recomputed value is produced by the
// identical arithmetic — pinned by TestEquivalenceTransient and
// TestFamilyEngineTraceEquivalence.
//
// Predictor: each step seeds its PCG solve with the extrapolation
// Tⁿ + ρ·(Tⁿ − Tⁿ⁻¹) instead of Tⁿ, where ρ = ⟨Δⁿ, Δⁿ⁻¹⟩/⟨Δⁿ⁻¹, Δⁿ⁻¹⟩
// (Δⁿ = Tⁿ − Tⁿ⁻¹) clamped to [0, 1] — the one-term case of Fischer's
// projection of earlier solutions. Under fixed sources and Δt the
// backward-Euler increments decay geometrically, so the guess starts
// far closer to Tⁿ⁺¹ and the solve needs fewer iterations. ρ sums in
// one serial loop, so the guess is the same at every worker count.
// The history — the two fields before Tⁿ — resets on a new Δt and on
// SetSources (SolveTrace also resets it per segment); the two steps
// after a reset, and any step where ρ is 0 or undefined, start from
// Tⁿ itself.
//
// Layout: inside the integrator every field is in the operator's
// column order (see operator). The start field goes in through
// NewTransient, and Field and Run hand out grid-order copies. Nobody
// outside reads the integrator's own fields, so a step solves into a
// buffer the integrator no longer reads, and the fields rotate through
// a fixed set of buffers: Tⁿ, the predictor's two, and the one being
// solved. They, the heat capacities and the right-hand side come from
// the package's free list and go back to it on Close.
//
// Call Close when done to return the leased context and, without a
// caller-owned Options.Engine, release the throwaway engine's
// goroutines (a finalizer covers leaked integrators, but
// deterministic release is cheaper than waiting for the collector).
// Close is idempotent.
type Transient struct {
	op  *operator // steady operator with an owned b (SetSources rewrites it)
	cap []float64 // heat capacitance per cell, J/K
	cur []float64 // current temperature field, K
	// grid is the grid-order copy of cur that Field handed out, nil
	// until Field is called after a step.
	grid []float64
	time float64
	opts Options

	// prev holds Tⁿ⁻¹ and Tⁿ⁻² for the predictor, newest first; an
	// entry is nil until that many steps have run since the last
	// reset. spare holds the buffers no field occupies.
	prev  [2][]float64
	spare [][]float64

	fam    *familyEntry
	lease  *augCtx // the (C/Δt + A) system for lastDt; nil before the first step
	lastDt float64
	eng    *Engine // throwaway engine closed by Close; nil with a caller-owned one
}

// NewTransient prepares a transient integrator starting from the
// initial field t0 (copied; length must match the grid). The
// problem's Cv must be positive and finite everywhere.
func NewTransient(p *Problem, t0 []float64, opts Options) (*Transient, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Grid
	n := g.NumCells()
	if len(t0) != n {
		return nil, fmt.Errorf("solver: initial field has %d entries, want %d", len(t0), n)
	}
	if len(p.Cv) != n {
		return nil, fmt.Errorf("solver: Cv has %d entries, want %d", len(p.Cv), n)
	}
	for c, v := range p.Cv {
		// !(v > 0) is true for NaN too, which a plain v <= 0 test
		// would let through.
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("solver: Cv has invalid heat capacity at cell %d (%g)", c, v)
		}
	}
	opts = opts.withDefaults()
	eng := opts.ownEngine()
	fam := opts.Engine.entry(p, opts)
	// The clone shares the entry's couplings and diagonal; only the RHS
	// is owned (SetSources rewrites it per segment). setSources on the
	// clone gives the RHS every solve of p derives, bit for bit.
	op := fam.cloneForSources()
	op.setSources(p.Q)
	heatCap := getUncleared(n)
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				heatCap[op.index(i, j, k)] = p.Cv[g.Index(i, j, k)] * g.Volume(i, j, k)
			}
		}
	}
	cur := getUncleared(n)
	op.toColumns(cur, t0)
	tr := &Transient{
		op:   op,
		cap:  heatCap,
		cur:  cur,
		opts: opts,
		fam:  fam,
		eng:  eng,
	}
	if eng != nil {
		// Backstop for integrators dropped without Close: release the
		// throwaway engine's helper goroutines when the collector finds
		// the integrator unreachable.
		runtime.SetFinalizer(tr, func(t *Transient) { t.eng.Close() })
	}
	return tr, nil
}

// Close returns the leased context to the family entry, the
// integrator's own arrays to the free list, and releases the throwaway
// engine, if any. Idempotent; the integrator must not be used
// afterwards. When Options.Engine supplied the pool, Close leaves it
// open (the engine's owner closes it).
func (tr *Transient) Close() {
	if tr.lease != nil {
		tr.fam.releaseAug(tr.lease)
		tr.lease = nil
	}
	tr.retire(tr.cur, tr.prev[0], tr.prev[1], tr.cap, tr.op.b)
	putFloats(tr.spare...)
	tr.cur, tr.prev, tr.cap, tr.op.b, tr.spare = nil, [2][]float64{}, nil, nil, nil
	if tr.eng != nil {
		tr.eng.Close()
	}
	runtime.SetFinalizer(tr, nil)
}

// Time returns the elapsed simulated time (s).
func (tr *Transient) Time() float64 { return tr.time }

// Field returns the current temperature field in grid order. The
// slice belongs to the caller — later steps leave it as it is — and
// repeated calls between two steps return the same slice.
func (tr *Transient) Field() []float64 {
	if tr.grid == nil {
		tr.grid = tr.op.gridField(tr.cur)
	}
	return tr.grid
}

// buffer returns a buffer for the next step's solution: a spare one
// when there is one, else one from the free list.
func (tr *Transient) buffer(n int) []float64 {
	if k := len(tr.spare); k > 0 {
		buf := tr.spare[k-1]
		tr.spare = tr.spare[:k-1]
		return buf
	}
	return getUncleared(n)
}

// retire hands buffers the integrator no longer reads back for reuse.
func (tr *Transient) retire(bufs ...[]float64) {
	for _, buf := range bufs {
		if buf != nil {
			tr.spare = append(tr.spare, buf)
		}
	}
}

// SetSources replaces the volumetric source field (W/m³) — used by
// scheduling studies that gate heat sources over time. The integrator
// rebuilds its own rhs from q in place (bitwise identical to a fresh
// assembly, per the setSources contract) and keeps no reference to q.
// The problem is not written, and the matrix and preconditioner are
// untouched — sources never enter them. A NaN or infinite entry is
// rejected before anything changes.
func (tr *Transient) SetSources(q []float64) error {
	if len(q) != len(tr.cur) {
		return fmt.Errorf("solver: source field has %d entries, want %d", len(q), len(tr.cur))
	}
	for c, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("solver: source field has invalid source at cell %d: %g", c, v)
		}
	}
	tr.op.setSources(q)
	tr.resetHistory()
	return nil
}

// resetHistory forgets the fields before Tⁿ, so the next two steps
// start from Tⁿ itself.
func (tr *Transient) resetHistory() {
	tr.retire(tr.prev[0], tr.prev[1])
	tr.prev = [2][]float64{}
}

// stepRHS writes the next step's right-hand side, (C/Δt)·Tⁿ + b, into
// the lease's augmented system, and returns the start of its solve:
// the predictor's extrapolation of the last three fields, written to
// the lease's scratch (pcg copies it), or Tⁿ when the history is short
// or ρ is 0 or undefined. ρ's two sums run in the same pass as the
// right-hand side, serially in cell order, so the guess does not
// depend on Workers.
func (tr *Transient) stepRHS() []float64 {
	t := tr.cur
	rhs, b, capDt := tr.lease.aug.b[:len(t)], tr.op.b[:len(t)], tr.lease.capDt[:len(t)]
	// capDt[c] is the value the lease added to the diagonal.
	if tr.prev[1] == nil {
		for c := range t {
			rhs[c] = b[c] + capDt[c]*t[c]
		}
		return tr.cur
	}
	t1, t2 := tr.prev[0][:len(t)], tr.prev[1][:len(t)]
	var num, den float64
	for c := range t {
		rhs[c] = b[c] + capDt[c]*t[c]
		d, d1 := t[c]-t1[c], t1[c]-t2[c]
		num += d * d1
		den += d1 * d1
	}
	rho := num / den
	if !(rho > 0) {
		return tr.cur // ρ ≤ 0, or 0/0 when the field stood still
	}
	rho = min(rho, 1)
	g := tr.lease.guess
	if g == nil {
		g = make([]float64, len(t))
		tr.lease.guess = g
	}
	g = g[:len(t)]
	for c := range t {
		g[c] = t[c] + rho*(t[c]-t1[c])
	}
	return g
}

// Step advances the field by dt seconds with one backward-Euler step.
func (tr *Transient) Step(dt float64) error {
	if dt <= 0 {
		return errors.New("solver: non-positive time step")
	}
	n := len(tr.cur)
	if dt != tr.lastDt {
		// A new Δt is a new matrix: lease its context from the family
		// entry — a Δt seen before reuses its matrix and preconditioner
		// instead of rebuilding. Bitwise-neutral: every
		// leased value is a pure function of (operator, Δt).
		if tr.lease != nil {
			tr.fam.releaseAug(tr.lease)
		}
		tr.lease = tr.fam.leaseAug(dt, tr.cap)
		tr.lastDt = dt
		tr.resetHistory()
	}
	// The rhs changes every step (it carries the previous field).
	opts := tr.opts
	opts.InitialGuess = tr.stepRHS()
	aug := tr.lease.aug
	x := tr.buffer(n)
	out, err := solveTraced(aug, aug.b, x, opts, "transient", tr.lease.kr, tr.lease.pcs)
	if err != nil {
		tr.retire(x)
		return err
	}
	tr.retire(tr.prev[1])
	tr.prev = [2][]float64{tr.cur, tr.prev[0]}
	tr.cur = out.x
	tr.grid = nil
	tr.time += dt
	return nil
}

// Run advances by n steps of dt and returns the final field (see
// Field). The
// step loop checks Options.Ctx between steps (the inner solve also
// checks per iteration), so a cancelled run stops promptly and the
// error unwraps to the context cause.
func (tr *Transient) Run(n int, dt float64) ([]float64, error) {
	for s := 0; s < n; s++ {
		if ctx := tr.opts.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("solver: transient step %d: %w", s, err)
			}
		}
		if err := tr.Step(dt); err != nil {
			return nil, fmt.Errorf("solver: transient step %d: %w", s, err)
		}
	}
	return tr.Field(), nil
}

// MaxField returns the maximum of the current field.
func (tr *Transient) MaxField() float64 { return maxOf(tr.cur) }
