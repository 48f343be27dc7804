package solver

import (
	"math"

	"thermalscaffold/internal/parallel"
)

// kern bundles the worker pool, reduction scratch and PCG work
// vectors behind one solve's parallel kernels. Every kernel keeps the
// determinism contract of internal/parallel: fixed chunk boundaries,
// partial sums combined in chunk order — so a solve is
// bit-reproducible at a fixed worker count and identical across any
// worker count ≥ 2. With one worker every kernel falls through to the
// exact single-threaded legacy loop (no goroutines, and no closure
// built per call). With more, a vector too short to dispatch
// (parallel.Pool.Dispatches) runs on the caller, its reductions still
// summed in chunk order.
//
// The hot-path kernels are fused: each one makes a single sweep over
// the vectors where the pre-fusion solver made two or three (SpMV
// then dot, update then norm). Fusion never reorders floating-point
// arithmetic — each fused loop evaluates the same per-element
// expressions in the same order and accumulates the same chunk
// partials as the separate passes did, so fused results are bitwise
// identical to the unfused legacy path (pinned by the equivalence
// suite).
//
// A kern is never used by two solves at once. It carries mutable
// scratch — the reduction partials and the PCG work vectors — that
// every solve on it overwrites, so whoever holds a kern runs its
// solves one after another: a leased steady or transient context of a
// family entry (see family.go). Sharing a kern across sequential
// solves is bitwise-neutral because pcg writes every entry of its
// work vectors before reading it.
type kern struct {
	pool     *parallel.Pool
	partials []float64 // chunk partial sums for deterministic reductions
	// PCG work vectors — residual, preconditioned residual, direction,
	// next direction, operator times direction — and the best-iterate
	// snapshot, drawn from the free list by the first solve (see
	// pcgVectors).
	r, z, p, pn, ap, best []float64
}

// newKern builds the kernel set for an n-cell solve on pool — always
// an engine's, which outlives the kern (a solve without
// Options.Engine runs on a throwaway engine; see Options.ownEngine).
func newKern(pool *parallel.Pool, n int) *kern {
	k := &kern{pool: pool}
	if nc := parallel.NumChunks(n); pool.Dispatches(nc) {
		k.partials = make([]float64, nc)
	}
	return k
}

// pcgVectors returns the kern's PCG work vectors for an n-cell solve,
// drawing them from the free list on first use (or when n changes).
// Later solves on the kern get them holding the previous solve's
// values; pcg overwrites each entry before it reads it, and copies the
// snapshot out before handing it to a caller.
func (k *kern) pcgVectors(n int) (r, z, p, pn, ap, best []float64) {
	if len(k.r) != n {
		k.r, k.z, k.p = getFloats(n), getFloats(n), getFloats(n)
		k.pn, k.ap, k.best = getFloats(n), getFloats(n), getFloats(n)
	}
	return k.r, k.z, k.p, k.pn, k.ap, k.best
}

// free hands the PCG work vectors back to the free list; the kern of
// a private family entry does so when the entry's call ends.
func (k *kern) free() {
	putFloats(k.r, k.z, k.p, k.pn, k.ap, k.best)
	k.r, k.z, k.p, k.pn, k.ap, k.best = nil, nil, nil, nil, nil, nil
}

// apply computes y = A·x, chunked across the pool when the vector is
// long enough to dispatch. Each chunk writes a disjoint range of y and
// only reads x, so the result is bitwise identical to the serial loop
// at any worker count.
func (k *kern) apply(op *operator, x, y []float64) {
	if !k.pool.Dispatches(parallel.NumChunks(len(x))) {
		op.applyRange(x, y, 0, len(x))
		return
	}
	k.pool.For(len(x), func(s, e int) { op.applyRange(x, y, s, e) })
}

// applyDot fuses the SpMV with the PCG curvature reduction: one sweep
// computes ap = A·p and returns pᵀ·ap. The per-chunk partial is
// Σ p[c]·ap[c] in index order — the same partials the separate
// kern.dot produced — and the serial path is one full-range pass in
// the legacy accumulation order.
func (k *kern) applyDot(op *operator, p, ap []float64) float64 {
	n := len(p)
	if k.pool.Serial() {
		return applyDotRange(op, p, ap, 0, n)
	}
	return k.pool.ReduceSum(n, k.partials, func(s, e int) float64 {
		return applyDotRange(op, p, ap, s, e)
	})
}

func applyDotRange(op *operator, p, ap []float64, s, e int) float64 {
	op.applyRange(p, ap, s, e)
	sum := 0.0
	for c := s; c < e; c++ {
		sum += p[c] * ap[c]
	}
	return sum
}

// applyDirDot folds the direction update into the next SpMV: one
// sweep computes pn = z + β·p, ap = A·pn and returns pnᵀ·ap, saving
// the separate read-modify-write direction pass over p. Neighbor
// values of pn are recomputed as z[nb] + β·p[nb] — the identical
// expression that produces pn[nb] — so every operand is bit-equal to
// what a materialized direction pass followed by applyDot would have
// read. Requires the stencil (callers go through pcg, which builds
// it).
func (k *kern) applyDirDot(op *operator, z, p, pn, ap []float64, beta float64) float64 {
	n := len(p)
	if k.pool.Serial() {
		return applyDirDotRange(op, z, p, pn, ap, beta, 0, n)
	}
	return k.pool.ReduceSum(n, k.partials, func(s, e int) float64 {
		return applyDirDotRange(op, z, p, pn, ap, beta, s, e)
	})
}

func applyDirDotRange(op *operator, z, p, pn, ap []float64, beta float64, s, e int) float64 {
	st := op.st
	sy, sz := op.sy, op.sz
	sum := 0.0
	for c := s; c < e; c++ {
		o := stencilStride * c
		pc := z[c] + beta*p[c]
		v := st[o] * pc
		if g := st[o+1]; g != 0 {
			v -= g * (z[c+1] + beta*p[c+1])
		}
		if g := st[o+2]; g != 0 {
			v -= g * (z[c-1] + beta*p[c-1])
		}
		if g := st[o+3]; g != 0 {
			v -= g * (z[c+sy] + beta*p[c+sy])
		}
		if g := st[o+4]; g != 0 {
			v -= g * (z[c-sy] + beta*p[c-sy])
		}
		if g := st[o+5]; g != 0 {
			v -= g * (z[c+sz] + beta*p[c+sz])
		}
		if g := st[o+6]; g != 0 {
			v -= g * (z[c-sz] + beta*p[c-sz])
		}
		pn[c] = pc
		ap[c] = v
		sum += pc * v
	}
	return sum
}

// residual computes r = b − A·x and returns ‖r‖₂ in one fused sweep
// per chunk (SpMV, subtraction, and the norm partial together).
func (k *kern) residual(op *operator, x, b, r []float64) float64 {
	n := len(x)
	if k.pool.Serial() {
		return math.Sqrt(residualRange(op, x, b, r, 0, n))
	}
	return math.Sqrt(k.pool.ReduceSum(n, k.partials, func(s, e int) float64 {
		return residualRange(op, x, b, r, s, e)
	}))
}

func residualRange(op *operator, x, b, r []float64, s, e int) float64 {
	op.applyRange(x, r, s, e)
	sum := 0.0
	for c := s; c < e; c++ {
		rc := b[c] - r[c]
		r[c] = rc
		sum += rc * rc
	}
	return sum
}

// dot returns aᵀb with the deterministic chunked reduction.
func (k *kern) dot(a, b []float64) float64 {
	if k.pool.Serial() {
		return dot(a, b)
	}
	return k.pool.ReduceSum(len(a), k.partials, func(s, e int) float64 {
		sum := 0.0
		for i := s; i < e; i++ {
			sum += a[i] * b[i]
		}
		return sum
	})
}

func (k *kern) norm2(a []float64) float64 { return math.Sqrt(k.dot(a, a)) }

// updateNorm performs the fused PCG update x += α·p, r −= α·ap and
// returns ‖r‖₂ from the same sweep (the residual-norm partials
// accumulate the freshly written r values in index order, exactly as
// a separate norm pass would read them back).
func (k *kern) updateNorm(x, r, p, ap []float64, alpha float64) float64 {
	n := len(x)
	if k.pool.Serial() {
		return math.Sqrt(updateNormRange(x, r, p, ap, alpha, 0, n))
	}
	return math.Sqrt(k.pool.ReduceSum(n, k.partials, func(s, e int) float64 {
		return updateNormRange(x, r, p, ap, alpha, s, e)
	}))
}

func updateNormRange(x, r, p, ap []float64, alpha float64, s, e int) float64 {
	sum := 0.0
	for c := s; c < e; c++ {
		x[c] += alpha * p[c]
		rc := r[c] - alpha*ap[c]
		r[c] = rc
		sum += rc * rc
	}
	return sum
}
