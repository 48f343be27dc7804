package solver

import (
	"fmt"
	"math"

	"thermalscaffold/internal/parallel"
)

// Engine owns a persistent worker pool shared across many solves.
// The pillar placement bisection and the evaluation service issue
// many solves against same-sized grids; without an engine each solve
// builds and tears down a throwaway engine of its own (W−1
// goroutines plus channel setup). Attach an engine via
// Options.Engine to amortize that across the whole loop.
//
// Determinism: an engine changes where kernels run, never what they
// compute — chunk boundaries depend only on the problem size, so a
// solve through an engine is bitwise identical to the same solve
// with Options.Workers alone.
//
// An Engine is safe for concurrent use by multiple solves (the pool
// multiplexes regions). Close releases the helper goroutines; the
// engine must not be used afterwards.
//
// Beyond the pool, an engine carries the family-keyed assembly cache
// (see family.go): solves that set Options.FamilyKey reuse the
// assembled operator and preconditioner hierarchies of every earlier
// solve in the same family. SetAssemblyCache sizes or disables the
// cache; AssemblyStats exposes its structural counters.
type Engine struct {
	pool    *parallel.Pool
	workers int
	fam     familyCache
}

// NewEngine creates an engine with the given worker count; workers
// ≤ 0 defaults to one worker per CPU core (runtime.GOMAXPROCS).
func NewEngine(workers int) *Engine {
	// Affine (statically owned) chunks: solver kernels sweep the same
	// vectors every iteration with near-uniform per-chunk cost, so
	// pinning each chunk to one worker keeps its pages and cache lines
	// on that worker across the whole solve (first-touch locality) at
	// no load-balance cost — and an engine's whole point is reuse
	// across thousands of same-shaped solves, exactly where stable
	// chunk→worker pinning pays most. Placement only: results are
	// bitwise identical to a dynamic pool.
	p := parallel.NewAffinePool(workers)
	e := &Engine{pool: p, workers: p.Workers()}
	e.fam.cap = defaultFamilyCap
	return e
}

// Workers returns the engine's worker count (≥ 1).
func (e *Engine) Workers() int { return e.workers }

// Close releases the engine's helper goroutines and drops the
// assembly cache. Idempotent.
func (e *Engine) Close() {
	e.pool.Close()
	e.fam.mu.Lock()
	e.fam.families = nil
	e.fam.mu.Unlock()
}

// SolveSteadyBatch solves the steady problem for K volumetric source
// fields sharing p's grid, conductivities, and boundary conditions:
// the operator is assembled once, the preconditioner (for Multigrid,
// the whole hierarchy) is built once, and one worker pool serves all
// K solves. qs[i] is item i's source field (W/m³, length NumCells);
// a nil entry reuses p.Q. This is the coalesced-miss path of the
// evaluation service's /v1/evalbatch, where sibling requests differ
// only in their power maps — the 7-point matrix depends on geometry
// and conductivity alone, so K power maps are K right-hand sides
// against one operator.
//
// Every result is bitwise identical to an independent
// SolveSteady(p', opts) with p'.Q = qs[i]: re-sourcing rebuilds b in
// assemble's exact per-cell arithmetic order, and the shared kern
// and cached preconditioners are pure functions of the (unchanged)
// operator matrix. The equivalence suite pins this at Workers 1 and
// 8.
//
// Solves run sequentially in item order (each solve already
// parallelizes internally). On the first item failure the batch
// stops and returns the error wrapped with the item index; earlier
// items' results are discarded.
func SolveSteadyBatch(p *Problem, qs [][]float64, opts Options) ([]*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Grid.NumCells()
	for i, q := range qs {
		if q == nil {
			continue
		}
		if len(q) != n {
			return nil, fmt.Errorf("solver: batch item %d has %d source entries, want %d", i, len(q), n)
		}
		for c, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("solver: batch item %d has invalid source at cell %d: %g", i, c, v)
			}
		}
	}
	results, i, err := solveBatch(p, qs, opts)
	if err != nil {
		return nil, fmt.Errorf("solver: batch item %d: %w", i, err)
	}
	return results, nil
}

// solveBatch is the one steady solve loop behind SolveSteady (a
// one-item batch) and SolveSteadyBatch: it leases one context of the
// solve's family entry (see Engine.entry) and runs the items through
// it, a nil source reusing p.Q. Options.InitialGuess goes into the
// operator's column order once for every item, and each solution comes
// back out to grid order. On failure it returns the failing item's
// index with the unwrapped error. p and qs must be validated.
func solveBatch(p *Problem, qs [][]float64, opts Options) ([]*Result, int, error) {
	opts = opts.withDefaults()
	n := p.Grid.NumCells()
	if g := opts.InitialGuess; g != nil && len(g) != n {
		return nil, 0, fmt.Errorf("solver: initial guess has %d entries, want %d", len(g), n)
	}
	if eng := opts.ownEngine(); eng != nil {
		defer eng.Close()
	}
	fe := opts.Engine.entry(p, opts)
	ctx := fe.lease()
	defer fe.release(ctx)
	op := fe.op
	if g := opts.InitialGuess; g != nil {
		col := getUncleared(n)
		defer putFloats(col)
		op.toColumns(col, g)
		opts.InitialGuess = col
	}
	x := getUncleared(n)
	defer putFloats(x)
	results := make([]*Result, len(qs))
	for i, q := range qs {
		if q == nil {
			q = p.Q
		}
		op.sourcesInto(q, ctx.b)
		out, err := solveTraced(op, ctx.b, x, opts, "pcg", ctx.kr, ctx.pcs)
		if err != nil {
			return nil, i, err
		}
		results[i] = &Result{
			T: op.gridField(out.x), Iterations: out.iterations, Residual: out.residual,
			Residuals: out.history, grid: p.Grid,
		}
	}
	return results, 0, nil
}
