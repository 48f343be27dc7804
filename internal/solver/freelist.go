package solver

import "sync"

// Buffer ownership.
//
// The paper flow runs optimisation loops of small steady solves on
// private family entries (see family.go), and each such solve owns a
// working set of some twenty n-length float64 arrays: the operator,
// the PCG work vectors, the preconditioner hierarchy
// and, through stack.Spec.Solve, the Problem itself. Those arrays come
// from one free list and go back to it when the solve ends, so the
// next solve of the same size reuses them instead of allocating.
//
// The list is a sync.Pool per exact length, so it cooperates with the
// garbage collector: a collection empties it, and an array nobody
// returns is simply collected. getFloats clears an array before it
// hands it out, for the sites that accumulate into it or rely on its
// zeros (coarse stencils, zero columns, a problem's Q and Cv).
// getUncleared hands an array out as the last user left it, for the
// sites that write every entry before any is read (an operator's
// couplings, diagonal and boundary rhs, a lease's right-hand side, a
// Δt context's augmented diagonal, rhs, C/Δt and predictor scratch,
// Thomas factors, level scratch, PCG vectors, a problem's
// conductivities); clearing those was a full extra pass over most of a
// solve's memory. Reuse moves no bit either way
// (TestEquivalenceDirtyFreeList).
//
// An array goes back only when nothing can read it any more. Arrays
// that escape a solve never go back: Result.T, Result.Residuals,
// ConvergenceError.Best, everything a cached family entry holds, and
// whatever NewProblem, Assemble or a transient integrator hands to a
// caller. The float32 arrays of the F32 preconditioner tier are made,
// not listed; the float64 temporaries they are converted from go back
// at once.

// maxFreeLengths bounds the number of distinct lengths the list keeps
// a pool for. A long-running service meets ever new grid shapes, and
// an empty pool outlives a collection; puts of a length beyond the
// bound are left to the collector.
const maxFreeLengths = 1024

var freeList struct {
	mu    sync.RWMutex
	pools map[int]*sync.Pool
}

// getFloats returns a zeroed float64 array of length n, recycled from
// the free list when it holds one.
func getFloats(n int) []float64 {
	if s := recycled(n); s != nil {
		clear(s)
		return s
	}
	return make([]float64, n)
}

// getUncleared returns a float64 array of length n whose contents are
// undefined: recycled from the free list as it was put back, when the
// list holds one. The caller must write every entry before reading it.
func getUncleared(n int) []float64 {
	if s := recycled(n); s != nil {
		return s
	}
	return make([]float64, n)
}

// recycled returns an array of length n from the free list, or nil.
func recycled(n int) []float64 {
	freeList.mu.RLock()
	pool := freeList.pools[n]
	freeList.mu.RUnlock()
	if pool != nil {
		if s, ok := pool.Get().([]float64); ok {
			return s
		}
	}
	return nil
}

// putFloats hands arrays back to the free list; empty ones are
// skipped. The caller must hold the only reference to each of them,
// and must put each one once.
func putFloats(arrays ...[]float64) {
	for _, s := range arrays {
		if n := len(s); n > 0 {
			if pool := lengthPool(n); pool != nil {
				pool.Put(s)
			}
		}
	}
}

// lengthPool returns the pool of length n, creating it while fewer
// than maxFreeLengths lengths have one; nil beyond that.
func lengthPool(n int) *sync.Pool {
	freeList.mu.RLock()
	pool := freeList.pools[n]
	freeList.mu.RUnlock()
	if pool != nil {
		return pool
	}
	freeList.mu.Lock()
	defer freeList.mu.Unlock()
	if pool = freeList.pools[n]; pool == nil && len(freeList.pools) < maxFreeLengths {
		if freeList.pools == nil {
			freeList.pools = make(map[int]*sync.Pool)
		}
		pool = new(sync.Pool)
		freeList.pools[n] = pool
	}
	return pool
}

// getTier returns a zeroed tier-F array of length n: from the free
// list at F64, made at F32.
func getTier[F mgFloat](n int) []F {
	var zero F
	if _, ok := any(zero).(float64); ok {
		return any(getFloats(n)).([]F)
	}
	return make([]F, n)
}

// getTierUncleared is getUncleared in tier F: from the free list at
// F64, made at F32.
func getTierUncleared[F mgFloat](n int) []F {
	var zero F
	if _, ok := any(zero).(float64); ok {
		return any(getUncleared(n)).([]F)
	}
	return make([]F, n)
}

// putTier hands tier-F arrays back to the free list at F64; at F32 it
// leaves them to the collector.
func putTier[F mgFloat](arrays ...[]F) {
	for _, s := range arrays {
		if f, ok := any(s).([]float64); ok {
			putFloats(f)
		}
	}
}
