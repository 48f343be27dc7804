package solver

import (
	"errors"
	"fmt"
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
// SoA stencil, kern and preconditioner — per Δt from it, so stepping
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
// Call Close when done to return the leased context and, without a
// caller-owned Options.Engine, release the throwaway engine's
// goroutines (a finalizer covers leaked integrators, but
// deterministic release is cheaper than waiting for the collector).
// Close is idempotent.
type Transient struct {
	p    *Problem
	op   *operator // steady operator with an owned b (SetSources rewrites it)
	cap  []float64 // heat capacitance per cell, J/K
	T    []float64 // current temperature field, K
	time float64
	opts Options

	fam    *familyEntry
	lease  *augCtx // the (C/Δt + A) system for lastDt; nil before the first step
	lastDt float64
	eng    *Engine // throwaway engine closed by Close; nil with a caller-owned one
}

// NewTransient prepares a transient integrator starting from the
// initial field t0 (copied; length must match the grid). The
// problem's Cv must be positive everywhere.
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
	heatCap := make([]float64, n)
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				c := g.Index(i, j, k)
				if p.Cv[c] <= 0 {
					return nil, fmt.Errorf("solver: non-positive heat capacity at cell %d", c)
				}
				heatCap[c] = p.Cv[c] * g.Volume(i, j, k)
			}
		}
	}
	opts = opts.withDefaults()
	eng := opts.ownEngine()
	fam := opts.Engine.entry(p, opts)
	// The clone shares the entry's couplings, diagonal, and stencil;
	// only the RHS is owned (SetSources rewrites it per segment).
	// setSources on the clone reproduces assemble's RHS bit for bit.
	op := fam.cloneForSources()
	op.setSources(p.Q)
	tr := &Transient{
		p:    p,
		op:   op,
		cap:  heatCap,
		T:    append([]float64(nil), t0...),
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

// Close returns the leased context to the family entry and releases
// the throwaway engine, if any. Idempotent; the integrator must not
// be used afterwards. When Options.Engine supplied the pool, Close
// leaves it open (the engine's owner closes it).
func (tr *Transient) Close() {
	if tr.lease != nil {
		tr.fam.releaseAug(tr.lease)
		tr.lease = nil
	}
	if tr.eng != nil {
		tr.eng.Close()
	}
	runtime.SetFinalizer(tr, nil)
}

// Time returns the elapsed simulated time (s).
func (tr *Transient) Time() float64 { return tr.time }

// Field returns the current temperature field (not a copy).
func (tr *Transient) Field() []float64 { return tr.T }

// SetSources replaces the volumetric source field (W/m³) — used by
// scheduling studies that gate heat sources over time. The slice is
// copied into the problem and the operator rhs is rebuilt in place
// (bitwise identical to a fresh assembly, per the setSources
// contract); the matrix, stencil, and preconditioner are untouched —
// sources never enter them.
func (tr *Transient) SetSources(q []float64) error {
	if len(q) != len(tr.p.Q) {
		return fmt.Errorf("solver: source field has %d entries, want %d", len(q), len(tr.p.Q))
	}
	copy(tr.p.Q, q)
	tr.op.setSources(tr.p.Q)
	return nil
}

// Step advances the field by dt seconds with one backward-Euler step.
func (tr *Transient) Step(dt float64) error {
	if dt <= 0 {
		return errors.New("solver: non-positive time step")
	}
	n := len(tr.T)
	if dt != tr.lastDt {
		// A new Δt is a new matrix: lease its context from the family
		// entry — a Δt seen before reuses its matrix, stencil, and
		// preconditioner instead of rebuilding. Bitwise-neutral: every
		// leased value is a pure function of (operator, Δt).
		if tr.lease != nil {
			tr.fam.releaseAug(tr.lease)
		}
		tr.lease = tr.fam.leaseAug(dt, tr.cap)
		tr.lastDt = dt
	}
	aug := tr.lease.aug
	// The rhs changes every step (it carries the previous field).
	// cap[c]/dt here is the identical expression that built the
	// diagonal, so splitting the loops keeps each value bit-equal to
	// the historical single fused loop.
	for c := 0; c < n; c++ {
		aug.b[c] = tr.op.b[c] + tr.cap[c]/dt*tr.T[c]
	}
	opts := tr.opts
	opts.InitialGuess = tr.T
	out, _, err := solveLadder(aug, aug.b, opts, "transient", tr.lease.kr, tr.lease.pcs)
	if err != nil {
		return err
	}
	tr.T = out.x
	tr.time += dt
	return nil
}

// Run advances by n steps of dt and returns the final field. The
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
	return tr.T, nil
}

// MaxField returns the maximum of the current field.
func (tr *Transient) MaxField() float64 { return maxOf(tr.T) }
