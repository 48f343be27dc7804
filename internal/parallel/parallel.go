// Package parallel provides the reusable worker pool and the
// deterministic data-parallel primitives behind the solver hot paths
// (chunked SpMV, PCG reductions, per-column preconditioner fan-out,
// multigrid sweeps). Stdlib only.
//
// Determinism contract: chunk boundaries depend only on the problem
// size — never on the worker count or on scheduling — and reductions
// combine per-chunk partial results sequentially in chunk order.
// Consequently every primitive in this package returns bit-identical
// results run-to-run at a fixed worker count, and identical results
// across any worker count ≥ 2. A pool with 1 worker short-circuits to
// plain serial loops (single full-range pass for reductions), which
// is the solver's exact legacy path; it differs from the chunked
// parallel reduction only by floating-point summation order.
//
// Dispatch rule: a region wakes the helper goroutines only when it has
// at least minDispatchChunks chunks (Pool.Dispatches); a smaller one
// runs inline on the caller, in the serial loop shapes but with
// reductions still summed in chunk order. The rule decides where a
// kernel runs, never what it computes.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the fixed chunk length (elements per chunk) used by For
// and ReduceSum. It is a compile-time constant so that chunk
// boundaries — and therefore reduction order — are a pure function of
// the problem size. 1024 float64 elements (8 KiB) amortizes the
// per-chunk atomic fetch while staying well under L1 size, and keeps
// realistic solver grids (≥ tens of thousands of cells) spread across
// many more chunks than workers for load balance.
const Grain = 1024

// NumChunks returns the number of fixed-Grain chunks covering n
// elements.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + Grain - 1) / Grain
}

// minDispatchChunks is the dispatch threshold: a region wakes helper
// goroutines only when it has at least this many chunks, and runs
// inline on the caller otherwise. Waking a parked helper and parking
// the caller until it is done costs more than splitting a region of a
// few chunks (1–9 µs of solver work each) gains; DESIGN §6 records the
// sweep that set the value. The inline path executes chunks in
// ascending order, so chunk-ordered reductions are bit-identical to
// the dispatched path.
const minDispatchChunks = 40

// region is one parallel-for dispatched to the pool. Dynamic regions
// have workers repeatedly claim the next unclaimed chunk off an
// atomic counter; static (affine) regions give each worker a fixed
// contiguous chunk block computed from its worker id alone.
type region struct {
	fn   func(worker, chunk int)
	next atomic.Int64
	num  int64
	// owners > 0 marks a static region: worker w executes exactly the
	// chunks of ownedRange(num, owners, w), so the chunk→worker map is
	// a pure function of (numChunks, owners) — identical on every
	// call. owners == 0 selects dynamic claiming.
	owners int
	wg     sync.WaitGroup // helpers still inside this region
}

func (r *region) run(worker int) {
	if r.owners > 0 {
		s, e := ownedRange(int(r.num), r.owners, worker)
		for c := s; c < e; c++ {
			r.fn(worker, c)
		}
		return
	}
	for {
		c := r.next.Add(1) - 1
		if c >= r.num {
			return
		}
		r.fn(worker, int(c))
	}
}

// Partition returns part idx of n items split into parts contiguous
// blocks — the same static tiling affine pools use for chunk
// ownership. Exposed for callers that band work themselves (e.g. the
// solver's tiled multigrid sweeps) and need the partition to be a
// pure function of (n, parts, idx).
func Partition(n, parts, idx int) (start, end int) {
	return ownedRange(n, parts, idx)
}

// ownedRange returns worker w's fixed contiguous chunk block when n
// chunks are split among k owners: blocks differ in length by at most
// one and depend only on (n, k, w) — never on scheduling.
func ownedRange(n, k, w int) (start, end int) {
	if w >= k {
		return 0, 0
	}
	per, extra := n/k, n%k
	start = w*per + min(w, extra)
	end = start + per
	if w < extra {
		end++
	}
	return start, end
}

// Pool is a reusable fixed-size worker pool: W−1 persistent helper
// goroutines plus the calling goroutine execute each parallel region.
// A pool with ≤ 1 worker runs everything inline on the caller with no
// goroutines and no synchronization. Pools are safe for concurrent
// use; Close releases the helpers (using a closed pool panics).
//
// Run/For/ForGrain/ReduceSum must not be re-entered from inside a
// region callback of the same pool — helpers would be claimed twice
// and the nested call could deadlock waiting for them.
type Pool struct {
	workers int
	affine  bool
	// chans[i] feeds helper goroutine id i+1. One channel per helper
	// (rather than one shared queue) pins the helper-id↔goroutine
	// binding: affine regions depend on worker w's block running on
	// the same goroutine every call, which a shared queue cannot
	// guarantee — one helper could drain two handoffs of the same
	// region while another never wakes.
	chans []chan *region
	close sync.Once
}

// NewPool creates a pool with the given worker count; workers ≤ 0
// defaults to runtime.GOMAXPROCS(0). Chunk→worker assignment is
// dynamic (work stealing): best when per-chunk cost varies.
func NewPool(workers int) *Pool {
	return newPool(workers, false)
}

// NewAffinePool creates a pool with static chunk ownership: every Run
// gives worker w the same fixed contiguous chunk block for a given
// chunk count, instead of racing an atomic claim counter. Repeated
// sweeps over the same arrays (iterative solvers) then touch the same
// memory from the same goroutine every iteration — the OS keeps those
// pages on the worker's NUMA node (first-touch) and its private cache
// lines stay valid across calls, where dynamic claiming reshuffles
// ownership every sweep. Results are identical either way (chunks
// compute the same values regardless of which worker runs them);
// only placement changes. Prefer this for uniform-cost kernels.
func NewAffinePool(workers int) *Pool {
	return newPool(workers, true)
}

func newPool(workers int, affine bool) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolsCreated.Add(1)
	p := &Pool{workers: workers, affine: affine}
	if workers > 1 {
		// Buffered so region dispatch rarely blocks on a helper
		// being ready to receive: the caller queues the handoffs
		// and immediately starts executing chunks itself.
		p.chans = make([]chan *region, workers-1)
		for id := 1; id < workers; id++ {
			p.chans[id-1] = make(chan *region, 4)
			go p.helper(id)
		}
	}
	return p
}

// Affine reports whether the pool uses static chunk ownership.
func (p *Pool) Affine() bool { return p.affine }

// Workers returns the pool's worker count (≥ 1).
func (p *Pool) Workers() int { return p.workers }

// Serial reports whether the pool has no helpers (worker count 1):
// every region runs inline, and ReduceSum makes one full-range pass.
func (p *Pool) Serial() bool { return p.workers <= 1 }

// Dispatches reports whether a region of numChunks chunks wakes the
// pool's helpers: the pool has some, and the region has enough chunks
// to pay for waking them (minDispatchChunks). Callers that split work
// themselves use it to run a region that does not dispatch as one
// range.
func (p *Pool) Dispatches(numChunks int) bool {
	return p.workers > 1 && numChunks >= minDispatchChunks
}

// Close shuts the helper goroutines down. Idempotent; the pool must
// not be used afterwards.
func (p *Pool) Close() {
	p.close.Do(func() {
		for _, ch := range p.chans {
			close(ch)
		}
	})
}

func (p *Pool) helper(id int) {
	for r := range p.chans[id-1] {
		r.run(id)
		r.wg.Done()
	}
}

// Run executes fn(worker, chunk) for every chunk in [0, numChunks),
// each exactly once, and returns when all have completed. worker is
// in [0, Workers()) and identifies the executing goroutine (0 is the
// caller) — use it to index per-worker scratch. Chunk-to-worker
// assignment is dynamic (work stealing off an atomic counter), so fn
// must not depend on which worker runs a chunk, only on the chunk
// index. A region that does not dispatch (Dispatches) runs its chunks
// in ascending order on the caller.
func (p *Pool) Run(numChunks int, fn func(worker, chunk int)) {
	if !p.Dispatches(numChunks) {
		for c := 0; c < numChunks; c++ {
			fn(0, c)
		}
		return
	}
	p.dispatch(numChunks, fn)
}

// RunBands executes fn(worker, band) for every band in [0, bands) and
// wakes the helpers whenever the pool has any and there are two bands
// or more. It is for work the caller has split into about one band
// per worker after deciding, with Dispatches, that the work is large
// enough: the band count itself says nothing about the cost.
func (p *Pool) RunBands(bands int, fn func(worker, band int)) {
	if p.workers <= 1 || bands <= 1 {
		for b := 0; b < bands; b++ {
			fn(0, b)
		}
		return
	}
	p.dispatch(bands, fn)
}

// dispatch hands a region of num chunks to the helpers, runs the
// caller's share, and waits for the rest.
func (p *Pool) dispatch(num int, fn func(worker, chunk int)) {
	regionsDispatched.Add(1)
	r := &region{fn: fn, num: int64(num)}
	helpers := p.workers - 1
	if p.affine {
		// Static ownership: every helper's fixed block must run even
		// when some blocks are empty, so all W−1 helpers are
		// dispatched (no capping at num−1 — the chunk→worker
		// map may not depend on which helpers happened to wake).
		r.owners = p.workers
	} else if helpers > num-1 {
		helpers = num - 1
	}
	r.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		p.chans[h] <- r
	}
	r.run(0)
	r.wg.Wait()
}

// poolsCreated counts Pool constructions process-wide. Regression
// guards use it to assert that hot paths (e.g. transient stepping)
// reuse a pinned pool instead of constructing one per call.
var poolsCreated atomic.Int64

// PoolsCreated returns the number of pools constructed so far in this
// process. Intended for tests: snapshot before, run the path under
// guard, assert the delta.
func PoolsCreated() int64 { return poolsCreated.Load() }

// regionsDispatched counts regions handed to helper goroutines,
// process-wide.
var regionsDispatched atomic.Int64

// RegionsDispatched returns the number of regions that have woken
// helper goroutines so far in this process. Like PoolsCreated it is
// for tests and benchmarks: the delta across a call says whether that
// call's regions were large enough to dispatch.
func RegionsDispatched() int64 { return regionsDispatched.Load() }

// For runs fn over [0, n) split into fixed Grain-sized chunks:
// fn(start, end) with end−start ≤ Grain. A range too short to
// dispatch gets one full-range call fn(0, n) instead. Writes to
// disjoint index ranges are race-free; elementwise kernels produce
// bit-identical results at any worker count.
func (p *Pool) For(n int, fn func(start, end int)) {
	nc := NumChunks(n)
	if !p.Dispatches(nc) {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	p.dispatch(nc, func(_, c int) {
		s := c * Grain
		e := s + Grain
		if e > n {
			e = n
		}
		fn(s, e)
	})
}

// ForGrain runs fn(worker, start, end) over [0, n) in chunks of the
// given grain (≥ 1). Used where the natural unit is not a float64
// element — e.g. one grid column per index. Like For, a range too
// short to dispatch gets one full-range call fn(0, 0, n).
func (p *Pool) ForGrain(n, grain int, fn func(worker, start, end int)) {
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if !p.Dispatches(chunks) {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	p.dispatch(chunks, func(worker, c int) {
		s := c * grain
		e := s + grain
		if e > n {
			e = n
		}
		fn(worker, s, e)
	})
}

// ReduceSum computes Σ fn(start, end) over fixed Grain-sized chunks
// of [0, n), combining the per-chunk partial sums sequentially in
// chunk order — deterministic at any worker count ≥ 2. With 1 worker
// it performs a single full-range fn(0, n) call (the exact serial
// summation order). scratch, when non-nil, must have at least
// NumChunks(n) capacity and avoids a per-call allocation; only a
// reduction that dispatches needs it.
func (p *Pool) ReduceSum(n int, scratch []float64, fn func(start, end int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if p.workers <= 1 {
		return fn(0, n)
	}
	nc := NumChunks(n)
	if !p.Dispatches(nc) {
		// Inline, no scratch: accumulate the per-chunk partials
		// in ascending chunk order — the same order the
		// dispatched path sums its partial array, so the result
		// is bit-identical.
		sum := 0.0
		for c := 0; c < nc; c++ {
			s := c * Grain
			e := s + Grain
			if e > n {
				e = n
			}
			sum += fn(s, e)
		}
		return sum
	}
	if cap(scratch) < nc {
		scratch = make([]float64, nc)
	}
	partial := scratch[:nc]
	p.dispatch(nc, func(_, c int) {
		s := c * Grain
		e := s + Grain
		if e > n {
			e = n
		}
		partial[c] = fn(s, e)
	})
	sum := 0.0
	for _, v := range partial {
		sum += v
	}
	return sum
}
