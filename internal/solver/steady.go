package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"thermalscaffold/internal/telemetry"
)

// Preconditioner selects the PCG preconditioner.
type Preconditioner int

const (
	// ZLine preconditioning solves the tridiagonal z-coupling of each
	// vertical cell column exactly (Thomas algorithm). Chip stacks
	// have lateral cells hundreds of times wider than their layers
	// are thick, making vertical coupling stiff; line relaxation in z
	// removes that stiffness and cuts iteration counts by an order of
	// magnitude. It is the zero value, so the default.
	ZLine Preconditioner = iota
	// Multigrid preconditioning runs one geometric V-cycle per PCG
	// iteration: x/y semi-coarsening (z stays at full resolution at
	// every level), damped z-line smoothing, rediscretized coarse
	// conductance operators, and an exact Thomas solve on the
	// 1×1-column coarsest level. Unlike Jacobi/ZLine its iteration
	// count is nearly mesh-independent, so it is the fastest choice on
	// large grids and for the repeated solves of the pillar placement
	// loop. See internal/solver/multigrid.go and DESIGN.md §7.
	Multigrid
	// Jacobi (diagonal) preconditioning — cheap, adequate for
	// near-isotropic grids, and the last rung of the fallback ladder.
	Jacobi
)

// String returns the flag-friendly name of the preconditioner.
func (p Preconditioner) String() string {
	switch p {
	case Jacobi:
		return "jacobi"
	case ZLine:
		return "zline"
	case Multigrid:
		return "multigrid"
	}
	return fmt.Sprintf("Preconditioner(%d)", int(p))
}

// ParsePreconditioner maps a CLI flag value ("jacobi", "zline",
// "multigrid"/"mg") to the Preconditioner constant. The empty string
// selects ZLine, matching the zero-value default.
func ParsePreconditioner(s string) (Preconditioner, error) {
	switch s {
	case "jacobi":
		return Jacobi, nil
	case "", "zline":
		return ZLine, nil
	case "multigrid", "mg":
		return Multigrid, nil
	}
	return 0, fmt.Errorf("solver: unknown preconditioner %q (want jacobi, zline, or multigrid)", s)
}

// Precision selects the arithmetic tier of the PCG preconditioner.
// Only the preconditioner is tiered: the operator, the outer PCG
// vectors, and every dot-product reduction always run in float64, so
// the tier changes how fast M⁻¹ approximates A⁻¹ — never what the
// solve converges to (Options.Tol is still enforced on the float64
// residual).
type Precision int

const (
	// F64 (the zero value) runs the preconditioner in float64.
	F64 Precision = iota
	// F32 stores the preconditioner's stencil, factors, and iterates
	// in float32 and sweeps in float32 arithmetic. The multigrid and
	// z-line smoothers are memory-bound, so halving the bytes per
	// sweep roughly halves preconditioner cost per iteration; the
	// rougher M⁻¹ typically costs a few extra PCG iterations.
	// Determinism is unchanged — the f32 sweeps contain no
	// floating-point reductions, so results are bit-identical
	// run-to-run and across worker counts, exactly like F64.
	F32
)

// String returns the flag-friendly name of the precision tier.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision maps a CLI flag value ("f64"/"float64", "f32"/
// "float32") to the Precision constant. The empty string selects F64,
// matching the zero-value default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return 0, fmt.Errorf("solver: unknown precision %q (want f64 or f32)", s)
}

// Options controls the iterative solvers.
type Options struct {
	// MaxIter bounds the iteration count (default 20000).
	MaxIter int
	// Tol is the relative residual target ‖b−A·T‖/‖b‖ (default 1e-8).
	Tol float64
	// InitialGuess, when non-nil, seeds the iteration (and is not
	// modified). Useful for continuation across parameter sweeps.
	InitialGuess []float64
	// Precond selects the preconditioner (default ZLine).
	Precond Preconditioner
	// Precision selects the preconditioner's arithmetic tier (default
	// F64). See Precision.
	Precision Precision
	// Workers is the number of goroutines running the parallel solver
	// kernels: chunked SpMV, deterministic PCG reductions, ZLine
	// column-range fan-out, and multigrid sweeps. 0 (the default)
	// uses runtime.GOMAXPROCS(0); values < 1 after defaulting, and
	// Workers=1 explicitly, run the exact single-threaded legacy path.
	//
	// Determinism: for any fixed Workers value, results are
	// bit-identical run to run; for Workers ≥ 2 they are additionally
	// bit-identical across worker counts, because reduction chunk
	// boundaries depend only on the problem size and partial sums
	// combine in chunk order (see internal/parallel). The parallel
	// path differs from Workers=1 only in the floating-point
	// summation order of dot products; the equivalence test suite
	// bounds the resulting temperature difference at ≤ 1e-12
	// relative.
	Workers int
	// Ctx, when non-nil, cancels the solve: the iteration checks
	// ctx.Done() once per outer iteration and returns a
	// *ConvergenceError with ReasonCancelled wrapping ctx.Err(). The error carries the best iterate reached so far
	// (ConvergenceError.Best) so deadline-bounded callers can use the
	// partial field, explicitly flagged as unconverged.
	Ctx context.Context
	// Telemetry, when non-nil, receives per-solve traces, counters
	// (solves, iterations, fallbacks, warm-start hits), and fallback
	// log lines. Purely observational — results are bitwise identical
	// with and without a collector attached (the equivalence suite
	// verifies this).
	Telemetry *telemetry.Collector
	// Engine, when non-nil, supplies a persistent worker pool shared
	// across solves (see NewEngine) instead of a throwaway engine built
	// and closed per solve — the outer loops of pillar placement and
	// the evaluation service issue thousands of solves, and pool reuse
	// removes the per-solve goroutine churn. Workers is ignored in
	// favor of the engine's worker count. Results are bitwise
	// identical with and without an engine: the pool only executes
	// kernels, and chunking depends solely on the problem size.
	Engine *Engine
	// FamilyKey, when non-empty and Engine is set, runs the solve on
	// the engine's cached family entry: the assembled operator, SoA
	// stencil, and preconditioner hierarchies are cached under the key
	// and every later solve in the family skips setup.
	// The caller guarantees the key contract (see family.go): two
	// problems share a key only if all operator-determining fields are
	// bitwise equal — exactly the sources-free canonical encoding of
	// WriteCanonical. Results are bitwise identical with and without a
	// key. Ignored without an Engine (the throwaway engine's cache
	// would die with the solve).
	FamilyKey string
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 20000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.Engine != nil {
		o.Workers = o.Engine.Workers()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// ownEngine gives a solve without Options.Engine a throwaway engine
// of its resolved worker count and returns it for the caller to
// close; it returns nil when o already carries an engine. The
// throwaway drops FamilyKey, since its cache dies with the solve.
func (o *Options) ownEngine() *Engine {
	if o.Engine != nil {
		return nil
	}
	o.Engine = NewEngine(o.Workers)
	o.FamilyKey = ""
	return o.Engine
}

// Result is the outcome of a steady solve.
type Result struct {
	T          []float64 // temperature per cell, K
	Iterations int
	Residual   float64 // final relative residual
	// Residuals is the per-iteration relative residual trace of the
	// solve that produced T.
	Residuals []float64
	// Fallbacks lists preconditioners abandoned on breakdown before
	// the one that produced T (empty on the normal path). Fallbacks
	// are also counted and logged through Options.Telemetry — never
	// silent.
	Fallbacks []Preconditioner
	grid      gridder
}

type gridder interface {
	Index(i, j, k int) int
	NX() int
	NY() int
	NZ() int
	Volume(i, j, k int) float64
}

// SolveSteady solves the steady conduction problem with
// preconditioned conjugate gradient. The solve parallelizes across
// Options.Workers goroutines with deterministic (bit-reproducible)
// reductions; Workers=1 is the exact legacy serial path.
//
// Robustness: cancellation via Options.Ctx, NaN/Inf and stagnation
// guards, and the automatic preconditioner fallback ladder
// (Multigrid → ZLine → Jacobi on breakdown) all apply; failures
// surface as a typed *ConvergenceError (see errors.go), never as a
// silently wrong field.
func SolveSteady(p *Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	results, _, err := solveBatch(p, [][]float64{nil}, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// fallbackLadder returns the preconditioner sequence attempted when a
// solve breaks down: each step is numerically simpler (and better
// conditioned against degenerate operators) than the one before.
// Breakdown — not plain non-convergence — triggers the descent, so a
// healthy-but-slow preconditioner is never second-guessed.
func fallbackLadder(pc Preconditioner) []Preconditioner {
	switch pc {
	case Multigrid:
		return []Preconditioner{Multigrid, ZLine, Jacobi}
	case ZLine:
		return []Preconditioner{ZLine, Jacobi}
	default:
		return []Preconditioner{pc}
	}
}

// testBreakdownHook, when non-nil, forces a breakdown failure at the
// given (preconditioner, iteration) — the test seam for exercising
// the fallback ladder, which a well-posed SPD problem cannot trigger
// naturally. Always nil outside tests.
var testBreakdownHook func(pc Preconditioner, iteration int) bool

// solveLadder runs PCG on an assembled operator with the
// preconditioner fallback ladder and telemetry, against the kern and
// preconditioner cache of a leased context. On breakdown it restarts
// the solve with the next-simpler preconditioner (from the same
// initial guess), counts and logs the event — never silently — and
// records one telemetry trace for the attempt sequence. A lease runs
// many solves of one operator (a batch's items, a transient's steps
// at one Δt) and sharing is bitwise-safe: the kern fixes the worker
// count (chunking depends on the problem size alone) and its scratch
// is overwritten before it is read, and the cached preconditioners
// are pure functions of the operator matrix, which does not change
// between solves.
func solveLadder(op *operator, b []float64, opts Options, method string, kr *kern, pcs precondCache) (*iterOutcome, []Preconditioner, error) {
	tel := opts.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	ladder := fallbackLadder(opts.Precond)
	var fallbacks []Preconditioner
	var out *iterOutcome
	var err error
	used := opts.Precond
	for i, try := range ladder {
		used = try
		o := opts
		o.Precond = try
		out, err = pcg(op, b, o, kr, pcs)
		if err == nil {
			break
		}
		ce, ok := AsConvergenceError(err)
		if !ok || ce.Reason != ReasonBreakdown || i+1 == len(ladder) {
			break
		}
		fallbacks = append(fallbacks, try)
		tel.Add(telemetry.CounterFallbacks, 1)
		tel.Logf("solver: %s: %s preconditioner broke down after %d iterations (%v); falling back to %s",
			method, try, ce.Iterations, ce.Err, ladder[i+1])
	}
	if tel != nil {
		o := opts
		o.Precond = used
		recordTrace(tel, method, o, len(b), out, err, start, fallbacks)
	}
	return out, fallbacks, err
}

// recordTrace writes one telemetry solve trace plus counters for a
// finished solve attempt (tel may be nil).
func recordTrace(tel *telemetry.Collector, method string, opts Options, cells int, out *iterOutcome, err error, start time.Time, fallbacks []Preconditioner) {
	if tel == nil {
		return
	}
	trace := telemetry.SolveTrace{
		Method:    method,
		Precond:   opts.Precond.String(),
		Workers:   opts.Workers,
		Cells:     cells,
		WarmStart: opts.InitialGuess != nil,
		WallNS:    time.Since(start).Nanoseconds(),
	}
	for _, f := range fallbacks {
		trace.Fallbacks = append(trace.Fallbacks, f.String())
	}
	if err == nil {
		trace.Converged = true
		trace.Iterations = out.iterations
		trace.Residual = telemetry.Float(out.residual)
		trace.Residuals = telemetry.Floats(out.history)
	} else if ce, ok := AsConvergenceError(err); ok {
		trace.Failure = ce.Reason.String()
		trace.Iterations = ce.Iterations
		trace.Residual = telemetry.Float(ce.Residual)
		trace.Residuals = telemetry.Floats(ce.History)
	}
	tel.Add(telemetry.CounterSolves, 1)
	tel.Add(telemetry.CounterIterations, int64(trace.Iterations))
	if trace.WarmStart {
		tel.Add(telemetry.CounterWarmStarts, 1)
	}
	tel.RecordSolve(trace)
}

// stagnationWindow is the divergence guard: a solve that observes no
// new best residual for this many consecutive iterations stops with
// ReasonStagnation instead of burning the rest of MaxIter. Detection
// depends only on the residual sequence, which is deterministic under
// the Workers contract, so the guard never breaks run-to-run
// reproducibility. A variable only so a test can shorten it.
var stagnationWindow = 1000

// iterOutcome is the raw product of one successful inner iteration:
// the solution vector plus its convergence record.
type iterOutcome struct {
	x          []float64
	iterations int
	residual   float64
	history    []float64
}

// pcg runs preconditioned conjugate gradient on A·x = b. All O(n)
// kernels — the fused SpMV+reduction sweeps and the preconditioner —
// run on kr's worker pool (see Options.Workers for the determinism
// contract). Per iteration the loop makes three fused sweeps instead
// of the historical seven passes: apply+direction+dot in one,
// update+norm in one, precondition(+dot for Jacobi) in one; every
// fusion preserves the exact legacy arithmetic order, so results are
// bitwise identical to the unfused loop.
//
// Failures return a *ConvergenceError: ReasonCancelled when
// opts.Ctx fires (checked once per iteration), ReasonBreakdown on
// NaN/Inf or loss of positive definiteness, ReasonStagnation when the
// residual stops improving for stagnationWindow iterations, and
// ReasonMaxIter when the budget runs out. The error always carries
// the residual history and the best iterate observed.
func pcg(op *operator, b []float64, opts Options, kr *kern, pcs precondCache) (*iterOutcome, error) {
	n := len(b)
	op.ensureStencil()
	x := make([]float64, n)
	if opts.InitialGuess != nil {
		if len(opts.InitialGuess) != n {
			return nil, fmt.Errorf("solver: initial guess has %d entries, want %d", len(opts.InitialGuess), n)
		}
		copy(x, opts.InitialGuess)
	}
	// The work vectors belong to the kern; pn is the next direction,
	// pointer-swapped with p.
	r, z, p, pn, ap, bestX := kr.pcgVectors(n)

	resNum := kr.residual(op, x, b, r)
	bn := kr.norm2(b)
	if bn == 0 {
		// Zero RHS with SPD A ⇒ zero solution.
		return &iterOutcome{x: x}, nil
	}
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	var history []float64
	// r already holds the initial residual; seeding res with its norm
	// means a failure before the first iteration completes (e.g. an
	// already-cancelled context) still reports a meaningful residual.
	res := resNum / bn
	// Best-iterate tracking for deadline-bounded callers. Copying x
	// every time the residual improves would cost O(n) per iteration,
	// so the snapshot refreshes lazily: only when the residual halves
	// relative to the last snapshot (O(log) copies per solve).
	bestRes, bestIter := math.Inf(1), 0
	snapped := false
	bestSnapRes := math.Inf(1)
	fail := func(reason FailureReason, it int, cause error) (*iterOutcome, error) {
		best, bres := x, res
		if snapped && !(res <= bestSnapRes) {
			// The snapshot is kern scratch that the next solve on this
			// kern overwrites, so the error gets its own copy.
			best, bres = append([]float64(nil), bestX...), bestSnapRes
		}
		return nil, &ConvergenceError{
			Method: "pcg", Precond: opts.Precond, Reason: reason,
			Iterations: it, Residual: res, History: history,
			Best: best, BestResidual: bres, Err: cause,
		}
	}
	pc, err := pcs.get(op, opts.Precond, opts.Precision, kr)
	if err != nil {
		return nil, &ConvergenceError{
			Method: "pcg", Precond: opts.Precond, Reason: ReasonBreakdown, Err: err,
		}
	}
	rz := pc(r, z)
	// Iteration 1 takes p = z directly (a β=0 fused direction could
	// flip signed zeros: z + 0·p is not always bit-equal to z).
	copy(p, z)
	beta := 0.0
	for it := 1; it <= opts.MaxIter; it++ {
		if done != nil {
			select {
			case <-done:
				return fail(ReasonCancelled, it-1, opts.Ctx.Err())
			default:
			}
		}
		var pap float64
		if it == 1 {
			pap = kr.applyDot(op, p, ap)
		} else {
			// The direction update p ← z + β·p of the previous
			// iteration is folded into this sweep (written to pn,
			// then pointer-swapped), saving a full pass over p.
			pap = kr.applyDirDot(op, z, p, pn, ap, beta)
			p, pn = pn, p
		}
		if !(pap > 0) {
			return fail(ReasonBreakdown, it-1,
				fmt.Errorf("operator lost positive definiteness (pᵀAp = %g)", pap))
		}
		alpha := rz / pap
		res = kr.updateNorm(x, r, p, ap, alpha) / bn
		history = append(history, res)
		if testBreakdownHook != nil && testBreakdownHook(opts.Precond, it) {
			return fail(ReasonBreakdown, it, errors.New("injected breakdown (test hook)"))
		}
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return fail(ReasonBreakdown, it, errors.New("non-finite residual"))
		}
		if res <= opts.Tol {
			return &iterOutcome{x: x, iterations: it, residual: res, history: history}, nil
		}
		if res < bestRes {
			bestRes, bestIter = res, it
			if res < 0.5*bestSnapRes {
				copy(bestX, x)
				bestSnapRes = res
				snapped = true
			}
		} else if it-bestIter >= stagnationWindow {
			return fail(ReasonStagnation, it,
				fmt.Errorf("no residual improvement in %d iterations (best %g at iteration %d)", it-bestIter, bestRes, bestIter))
		}
		rzNew := pc(r, z)
		beta = rzNew / rz
		rz = rzNew
	}
	return fail(ReasonMaxIter, opts.MaxIter, nil)
}

// precondOp is one built preconditioner: it overwrites z with M⁻¹·r
// and returns rᵀz. Jacobi sums rᵀz in the sweep that writes z, which
// is the flat index-order summation of a separate dot pass; ZLine and
// Multigrid write z in column or level order, so they apply first and
// then reduce with kr.dot, and the determinism contract's summation
// order never changes.
type precondOp func(r, z []float64) float64

// precond is one built preconditioner: its apply, and free, which
// hands the arrays the build drew from the free list back to it.
type precond struct {
	apply precondOp
	free  func()
}

// precondKey identifies one built preconditioner: the scheme plus its
// arithmetic tier (the f32 and f64 builds of the same scheme hold
// different arrays).
type precondKey struct {
	pc   Preconditioner
	prec Precision
}

// precondCache memoizes built preconditioners by (scheme, precision).
// One cache lives per leased solve context (see family.go), covering
// the fallback ladder and every later solve on the lease — batch
// items, transient steps at one Δt, later solves in a cached family:
// preconditioner construction is a pure function of the operator
// matrix, so reuse is bitwise-neutral, and for Multigrid it saves
// rebuilding the whole hierarchy per solve.
type precondCache map[precondKey]precond

func (pcs precondCache) get(op *operator, kind Preconditioner, prec Precision, kr *kern) (precondOp, error) {
	key := precondKey{pc: kind, prec: prec}
	if pc, ok := pcs[key]; ok {
		return pc.apply, nil
	}
	pc, err := makePreconditioner(op, kind, prec, kr)
	if err != nil {
		return nil, err
	}
	pcs[key] = pc
	return pc.apply, nil
}

// free hands every cached preconditioner's arrays back to the free
// list; a private family entry's context does so when its call ends.
func (pcs precondCache) free() {
	for _, pc := range pcs {
		pc.free()
	}
}

// makePreconditioner builds the selected scheme in the selected
// precision tier, running on kr's worker pool.
func makePreconditioner(op *operator, kind Preconditioner, prec Precision, kr *kern) (precond, error) {
	if !op.diagChecked {
		for _, d := range op.diag {
			if d <= 0 {
				return precond{}, errors.New("solver: non-positive diagonal — singular system")
			}
		}
		op.diagChecked = true
	}
	switch prec {
	case F64:
		return makeTier[float64](op, kind, kr)
	case F32:
		return makeTier[float32](op, kind, kr)
	}
	return precond{}, fmt.Errorf("solver: unknown precision %d", prec)
}

// makeTier builds the selected scheme in tier F. ZLine is the
// one-level hierarchy (its apply is lineSolve, the exact per-column
// Thomas solve against the full diagonal) and Multigrid the full one.
func makeTier[F mgFloat](op *operator, kind Preconditioner, kr *kern) (precond, error) {
	var mg *multigrid[F]
	switch kind {
	case Jacobi:
		return newJacobi[F](op, kr), nil
	case ZLine:
		mg = newZLineTier[F](op, kr)
	case Multigrid:
		mg = newMultigridTier[F](op, kr)
	default:
		return precond{}, fmt.Errorf("solver: unknown preconditioner %d", kind)
	}
	return precond{
		apply: func(r, z []float64) float64 {
			mg.apply(r, z)
			return kr.dot(r, z)
		},
		free: mg.free,
	}, nil
}

// newJacobi builds diagonal preconditioning in tier F: the reciprocal
// diagonal is computed in float64 and stored in F, each z entry is
// the F product r·(1/diag), and rᵀz sums in float64 over the same
// chunks, in the same order, as kr.dot.
func newJacobi[F mgFloat](op *operator, kr *kern) precond {
	n := len(op.diag)
	invDiag := getTier[F](n)
	for c, d := range op.diag {
		invDiag[c] = F(1 / d)
	}
	pc := precond{free: func() { putTier(invDiag) }}
	if kr.pool.Serial() {
		pc.apply = func(r, z []float64) float64 { return jacobiRange(invDiag, r, z, 0, n) }
		return pc
	}
	pc.apply = func(r, z []float64) float64 {
		return kr.pool.ReduceSum(n, kr.partials, func(s, e int) float64 {
			return jacobiRange(invDiag, r, z, s, e)
		})
	}
	return pc
}

func jacobiRange[F mgFloat](invDiag []F, r, z []float64, s, e int) float64 {
	sum := 0.0
	for c := s; c < e; c++ {
		zc := float64(F(r[c]) * invDiag[c])
		z[c] = zc
		sum += r[c] * zc
	}
	return sum
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Max returns the maximum temperature in the field.
func (r *Result) Max() float64 {
	m := math.Inf(-1)
	for _, t := range r.T {
		if t > m {
			m = t
		}
	}
	return m
}

// Min returns the minimum temperature in the field.
func (r *Result) Min() float64 {
	m := math.Inf(1)
	for _, t := range r.T {
		if t < m {
			m = t
		}
	}
	return m
}

// At returns the temperature of cell (i, j, k).
func (r *Result) At(i, j, k int) float64 {
	return r.T[r.grid.Index(i, j, k)]
}

// LayerMax returns the maximum temperature within z-layer k.
func (r *Result) LayerMax(k int) float64 {
	m := math.Inf(-1)
	for j := 0; j < r.grid.NY(); j++ {
		for i := 0; i < r.grid.NX(); i++ {
			if t := r.T[r.grid.Index(i, j, k)]; t > m {
				m = t
			}
		}
	}
	return m
}

// LayerMean returns the volume-weighted mean temperature of z-layer k.
func (r *Result) LayerMean(k int) float64 {
	var sum, vol float64
	for j := 0; j < r.grid.NY(); j++ {
		for i := 0; i < r.grid.NX(); i++ {
			v := r.grid.Volume(i, j, k)
			sum += r.T[r.grid.Index(i, j, k)] * v
			vol += v
		}
	}
	return sum / vol
}

// BoundaryFlux returns the total heat (W) leaving the domain through
// the given face under the solved field — used for energy-balance
// verification. Positive means heat flowing out.
func BoundaryFlux(p *Problem, r *Result, f Face) float64 {
	g := p.Grid
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	bc := p.Bounds[f]
	if bc.Kind == Adiabatic {
		return 0
	}
	total := 0.0
	cellOnFace := func(f Face) [][3]int {
		var cells [][3]int
		switch f {
		case XMin, XMax:
			i := 0
			if f == XMax {
				i = nx - 1
			}
			for k := 0; k < nz; k++ {
				for j := 0; j < ny; j++ {
					cells = append(cells, [3]int{i, j, k})
				}
			}
		case YMin, YMax:
			j := 0
			if f == YMax {
				j = ny - 1
			}
			for k := 0; k < nz; k++ {
				for i := 0; i < nx; i++ {
					cells = append(cells, [3]int{i, j, k})
				}
			}
		case ZMin, ZMax:
			k := 0
			if f == ZMax {
				k = nz - 1
			}
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					cells = append(cells, [3]int{i, j, k})
				}
			}
		}
		return cells
	}
	for _, c := range cellOnFace(f) {
		i, j, k := c[0], c[1], c[2]
		idx := g.Index(i, j, k)
		var area, d, kcond float64
		switch f {
		case XMin, XMax:
			area, d, kcond = g.DY(j)*g.DZ(k), g.DX(i), p.KX[idx]
		case YMin, YMax:
			area, d, kcond = g.DX(i)*g.DZ(k), g.DY(j), p.KY[idx]
		case ZMin, ZMax:
			area, d, kcond = g.DX(i)*g.DY(j), g.DZ(k), p.KZ[idx]
		}
		gb := boundaryG(area, d, kcond, bc)
		total += gb * (r.T[idx] - bc.T)
	}
	return total
}
