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
	// Multigrid preconditioning runs one geometric V-cycle per PCG
	// iteration: x/y semi-coarsening (z stays at full resolution at
	// every level), damped z-line smoothing, rediscretized coarse
	// conductance operators, and an exact Thomas solve on the
	// 1×1-column coarsest level. Its iteration count is nearly
	// mesh-independent, and it solves stacks whose narrow lateral cells
	// defeat ZLine. It is the zero value, so the default. See
	// internal/solver/multigrid.go and DESIGN.md §7.
	Multigrid Preconditioner = iota
	// ZLine preconditioning solves the tridiagonal z-coupling of each
	// vertical cell column exactly (Thomas algorithm): the one-level
	// multigrid hierarchy. It removes the stiff vertical coupling of
	// wide, thin cells, but nothing carries lateral error, so its
	// iteration count grows with the lateral grid.
	ZLine
)

// String returns the flag-friendly name of the preconditioner.
func (p Preconditioner) String() string {
	switch p {
	case Multigrid:
		return "multigrid"
	case ZLine:
		return "zline"
	}
	return fmt.Sprintf("Preconditioner(%d)", int(p))
}

// ParsePreconditioner maps a CLI flag value ("multigrid"/"mg",
// "zline") to the Preconditioner constant. The empty string selects
// Multigrid, matching the zero-value default.
func ParsePreconditioner(s string) (Preconditioner, error) {
	switch s {
	case "", "multigrid", "mg":
		return Multigrid, nil
	case "zline":
		return ZLine, nil
	}
	return 0, fmt.Errorf("solver: unknown preconditioner %q (want zline or multigrid)", s)
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
	// in float32 and sweeps in float32 arithmetic, halving the bytes
	// every sweep moves; that pays once a level outgrows the cache
	// (DESIGN §12), and the rougher M⁻¹ typically costs a few extra
	// PCG iterations.
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
	// modified). Continuation supplies it across a parameter search.
	InitialGuess []float64
	// Precond selects the preconditioner (default Multigrid).
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
	// Telemetry, when non-nil, receives per-solve traces and counters
	// (solves, iterations, warm-start hits). Purely observational —
	// results are bitwise identical with and without a collector
	// attached (the equivalence suite verifies this).
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
	// the engine's cached family entry: the assembled operator and
	// preconditioner hierarchies are cached under the key and every
	// later solve in the family skips setup.
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

// Continuation supplies Options.InitialGuess along a search over one
// scalar parameter whose solved fields vary smoothly with it, such as
// a bisection. It guesses the Lagrange quadratic through the last
// three solved (parameter, field) pairs; with fewer than three, or
// when two of them share a parameter, the last field; before any, nil
// (a cold start). The zero value is ready to use.
type Continuation struct {
	params [3]float64
	fields [3][]float64 // oldest first; one length
	n      int
	guess  []float64
}

// Add records the field solved at parameter p. The field is held, not
// copied: the caller must not change it afterwards.
func (c *Continuation) Add(p float64, field []float64) {
	if c.n == len(c.fields) {
		copy(c.params[:], c.params[1:])
		copy(c.fields[:], c.fields[1:])
		c.n--
	}
	c.params[c.n], c.fields[c.n] = p, field
	c.n++
}

// Guess returns the start of the solve at parameter p. A quadratic
// guess is written into one buffer that every Guess reuses, so it
// stays valid until the next Guess, and only the first one allocates.
func (c *Continuation) Guess(p float64) []float64 {
	if c.n < len(c.fields) {
		if c.n == 0 {
			return nil
		}
		return c.fields[c.n-1]
	}
	x0, x1, x2 := c.params[0], c.params[1], c.params[2]
	f0, f1, f2 := c.fields[0], c.fields[1], c.fields[2]
	d01, d02, d12 := x0-x1, x0-x2, x1-x2
	if d01 == 0 || d02 == 0 || d12 == 0 {
		return f2
	}
	l0 := (p - x1) * (p - x2) / (d01 * d02)
	l1 := -(p - x0) * (p - x2) / (d01 * d12)
	l2 := (p - x0) * (p - x1) / (d02 * d12)
	if len(c.guess) != len(f2) {
		c.guess = make([]float64, len(f2))
	}
	g := c.guess
	for i := range g {
		g[i] = l0*f0[i] + l1*f1[i] + l2*f2[i]
	}
	return g
}

// Result is the outcome of a steady solve.
type Result struct {
	T          []float64 // temperature per cell, K
	Iterations int
	Residual   float64 // final relative residual
	// Residuals is the per-iteration relative residual trace.
	Residuals []float64
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
// Robustness: cancellation via Options.Ctx, and NaN/Inf and
// stagnation guards; failures surface as a typed *ConvergenceError
// (see errors.go) naming the preconditioner that ran, never as a
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

// testIterationHook, when non-nil, is called with each completed PCG
// iteration's number — the seam that lets a test cancel a solve at a
// known iteration. It only observes. Always nil outside tests.
var testIterationHook func(iteration int)

// solveTraced runs PCG on an assembled operator against the kern and
// preconditioner cache of a leased context, and records one telemetry
// trace for the solve. A lease runs many solves of one operator (a
// batch's items, a transient's steps at one Δt) and sharing is
// bitwise-safe: the kern fixes the worker count (chunking depends on
// the problem size alone) and its scratch is overwritten before it is
// read, and the cached preconditioners are pure functions of the
// operator matrix, which does not change between solves.
func solveTraced(op *operator, b, x []float64, opts Options, method string, kr *kern, pcs precondCache) (*iterOutcome, error) {
	var start time.Time
	if opts.Telemetry != nil {
		start = time.Now()
	}
	out, err := pcg(op, b, x, opts, kr, pcs)
	recordTrace(opts.Telemetry, method, opts, len(b), out, err, start)
	return out, err
}

// recordTrace writes one telemetry solve trace plus counters for a
// finished solve (tel may be nil).
func recordTrace(tel *telemetry.Collector, method string, opts Options, cells int, out *iterOutcome, err error, start time.Time) {
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
// contract). Per iteration the loop makes four passes instead of the
// historical seven: apply+direction+dot in one, update+norm in one,
// then the preconditioner and its rᵀz dot; every fusion preserves the
// exact legacy arithmetic order, so results are bitwise identical to
// the unfused loop.
//
// Failures return a *ConvergenceError: ReasonCancelled when
// opts.Ctx fires (checked once per iteration), ReasonBreakdown on
// NaN/Inf or loss of positive definiteness, ReasonStagnation when the
// residual stops improving for stagnationWindow iterations, and
// ReasonMaxIter when the budget runs out. The error always carries
// the residual history and the best iterate observed.
//
// The solution is written into x, which the caller passes (n long,
// any contents, never the initial guess itself) and gets back as
// iterOutcome.x: pcg starts it from opts.InitialGuess, or from zero.
// A start from zero skips the initial residual's SpMV: A·(+0) is +0 in
// every cell, so r = b − A·x is b bit for bit, and its norm is ‖b‖
// summed in the same chunk order (TestColdStartMatchesZeroGuess).
// Inside the solver every vector is in the operator's column order —
// b, x, and opts.InitialGuess, which the public entry points transpose
// in — and only the error's best iterate goes back to grid order here.
func pcg(op *operator, b, x []float64, opts Options, kr *kern, pcs precondCache) (*iterOutcome, error) {
	n := len(b)
	// The work vectors belong to the kern; pn is the next direction,
	// pointer-swapped with p.
	r, z, p, pn, ap, bestX := kr.pcgVectors(n)
	bn := kr.norm2(b)
	resNum := bn
	if opts.InitialGuess != nil {
		copy(x, opts.InitialGuess)
		resNum = kr.residual(op, x, b, r)
	} else {
		clear(x)
		copy(r, b)
	}
	if bn == 0 {
		// Zero RHS with SPD A ⇒ zero solution, whatever the guess.
		clear(x)
		return &iterOutcome{x: x}, nil
	}
	if resNum == 0 {
		// The guess solves the system exactly. Iterating would find
		// z = p = 0 and pᵀAp = 0 and report a breakdown, so return it.
		// Only an exact zero: a start merely within Tol still iterates
		// (DESIGN §13 measures what returning there costs a trace).
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
		// x belongs to the caller, and the snapshot is kern scratch that
		// the next solve on this kern overwrites, so the error gets its
		// own copy of either, in grid order.
		best, bres := x, res
		if snapped && !(res <= bestSnapRes) {
			best, bres = bestX, bestSnapRes
		}
		best = op.gridField(best)
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
	pc(r, z)
	rz := kr.dot(r, z)
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
		if testIterationHook != nil {
			testIterationHook(it)
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
		pc(r, z)
		rzNew := kr.dot(r, z)
		beta = rzNew / rz
		rz = rzNew
	}
	return fail(ReasonMaxIter, opts.MaxIter, nil)
}

// precondOp is one built preconditioner: it overwrites z with M⁻¹·r.
// Both schemes write z column by column or level by level; pcg then
// sums rᵀz with kr.dot, so the determinism contract's summation order
// never changes.
type precondOp func(r, z []float64)

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
// every solve on the lease — batch items, transient steps at one Δt,
// later solves in a cached family:
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
			if !(d > 0) { // NaN is not positive either
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
	case ZLine:
		mg = newZLineTier[F](op, kr)
	case Multigrid:
		mg = newMultigridTier[F](op, kr)
	default:
		return precond{}, fmt.Errorf("solver: unknown preconditioner %d", kind)
	}
	return precond{apply: mg.apply, free: mg.free}, nil
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
		gb := boundaryG(area, halfRes(d, kcond), bc)
		total += gb * (r.T[idx] - bc.T)
	}
	return total
}
