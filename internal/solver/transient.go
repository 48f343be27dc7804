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
// Hot-path reuse: the integrator pins one worker pool, one augmented
// operator (matrix buffers, SoA stencil), and one preconditioner for
// its whole lifetime instead of rebuilding them per step — stepping
// allocates no pools, no PCG work vectors (the kern owns them) and,
// at a fixed Δt, no preconditioners. This is what fixed the
// historical 1→4 worker per-step regression: the old path paid W−1
// goroutine launches plus a full preconditioner construction on
// every Step, which dwarfed the parallel speedup of the solve itself. The augmented matrix depends only on (A, C, Δt),
// so its stencil and preconditioner stay valid until Δt changes;
// SetSources touches only the right-hand side. All reuse is bitwise
// neutral — every recomputed value is produced by the identical
// arithmetic — pinned by TestEquivalenceTransient.
//
// Call Close when done to release the pinned pool's goroutines
// (a finalizer covers leaked integrators, but deterministic release
// is cheaper than waiting for the collector). Close is idempotent;
// integrators holding a caller-owned Options.Engine release nothing.
type Transient struct {
	p    *Problem
	op   *operator
	cap  []float64 // heat capacitance per cell, J/K
	T    []float64 // current temperature field, K
	time float64
	opts Options

	kr     *kern     // pinned worker pool + reduction scratch
	aug    *operator // reused (C/Δt + A) system; valid for dt = lastDt
	pcs    precondCache
	lastDt float64 // dt the aug diagonal/stencil/preconditioner were built for

	// Family-cached mode (Options.FamilyKey + Options.Engine): the
	// steady assembly comes from the engine's family cache and the
	// per-Δt augmented systems — matrix, stencil, preconditioner —
	// are leased from it, so a trace in a known family skips both
	// assembly and hierarchy setup, and concurrent traces of one
	// family share the per-Δt preconditioner economics across
	// requests. lease is the context for lastDt; nil fam selects the
	// self-contained path above.
	fam   *familyEntry
	lease *augCtx
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
	var fam *familyEntry
	var op *operator
	if opts.Engine != nil && opts.FamilyKey != "" {
		if fe := opts.Engine.family(opts.FamilyKey, p, opts.Telemetry); fe != nil {
			// The family clone shares the frozen couplings, diagonal,
			// and stencil; only the RHS is owned (SetSources rewrites
			// it per segment). setSources on the clone reproduces
			// assemble's RHS bit for bit.
			fam = fe
			op = fe.cloneForSources()
			op.setSources(p.Q)
		}
	}
	if op == nil {
		op = assemble(p)
	}
	tr := &Transient{
		p:    p,
		op:   op,
		cap:  heatCap,
		T:    append([]float64(nil), t0...),
		opts: opts,
		pcs:  precondCache{},
		fam:  fam,
	}
	tr.kr = newKern(tr.opts, n)
	if fam == nil {
		// The augmented operator shares the steady couplings (they never
		// change) and owns only the Δt-dependent diagonal and the rhs.
		// In family mode the augmented systems are leased per Δt from
		// the family entry instead (see Step).
		tr.aug = &operator{
			g: op.g, nx: op.nx, ny: op.ny, nz: op.nz,
			sy: op.sy, sz: op.sz,
			gxp: op.gxp, gyp: op.gyp, gzp: op.gzp,
			diag: make([]float64, n),
			b:    make([]float64, n),
		}
	}
	if tr.kr.owned {
		// Backstop for integrators dropped without Close: release the
		// pinned pool's helper goroutines when the collector finds the
		// integrator unreachable.
		runtime.SetFinalizer(tr, func(t *Transient) { t.kr.close() })
	}
	return tr, nil
}

// Close releases the integrator's pinned worker pool. Idempotent; the
// integrator must not be used afterwards. When Options.Engine supplied
// the pool, Close releases nothing (the engine's owner closes it).
func (tr *Transient) Close() {
	if tr.fam != nil && tr.lease != nil {
		tr.fam.releaseAug(tr.lastDt, tr.lease)
		tr.lease = nil
	}
	tr.kr.close()
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
	aug, kr, pcs := tr.aug, tr.kr, tr.pcs
	if tr.fam != nil {
		// Family mode: per-Δt augmented systems are leased from the
		// engine's family cache — a Δt seen before (by this trace or
		// any earlier one in the family) reuses its matrix, stencil,
		// and preconditioner instead of rebuilding. Bitwise-neutral:
		// every leased value is a pure function of (family, Δt).
		if dt != tr.lastDt {
			if tr.lease != nil {
				tr.fam.releaseAug(tr.lastDt, tr.lease)
			}
			tr.lease = tr.fam.leaseAug(dt, tr.cap, tr.opts)
			tr.lastDt = dt
		}
		aug, kr, pcs = tr.lease.aug, tr.lease.kr, tr.lease.pcs
	} else if dt != tr.lastDt {
		// New Δt → new matrix: refresh the diagonal and drop the baked
		// stencil, the positivity check, and every cached
		// preconditioner (all three are functions of the matrix).
		for c := 0; c < n; c++ {
			aug.diag[c] = tr.op.diag[c] + tr.cap[c]/dt
		}
		aug.st = nil
		aug.diagChecked = false
		clear(tr.pcs)
		tr.lastDt = dt
	}
	// The rhs changes every step (it carries the previous field).
	// cap[c]/dt here is the identical expression that built the
	// diagonal, so splitting the loops keeps each value bit-equal to
	// the historical single fused loop.
	for c := 0; c < n; c++ {
		aug.b[c] = tr.op.b[c] + tr.cap[c]/dt*tr.T[c]
	}
	opts := tr.opts
	opts.InitialGuess = tr.T
	out, _, err := solveOperatorWith(aug, aug.b, opts, "transient", kr, pcs)
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
func (tr *Transient) MaxField() float64 {
	m := tr.T[0]
	for _, t := range tr.T[1:] {
		if t > m {
			m = t
		}
	}
	return m
}
