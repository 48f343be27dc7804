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
		k.r, k.z, k.p = getUncleared(n), getUncleared(n), getUncleared(n)
		k.pn, k.ap, k.best = getUncleared(n), getUncleared(n), getUncleared(n)
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

// inline reports whether an n-long reduction runs on the caller in
// chunk order (parallel.SumChunks) rather than on the pool. The
// kernels below build the closure they pass to SumChunks there
// separately from the one ReduceSum may hand to the helpers: only the
// second escapes, so a reduction that does not dispatch allocates
// nothing.
func (k *kern) inline(n int) bool { return !k.pool.Dispatches(parallel.NumChunks(n)) }

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
	if k.inline(n) {
		return parallel.SumChunks(n, func(s, e int) float64 { return applyDotRange(op, p, ap, s, e) })
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
// read.
func (k *kern) applyDirDot(op *operator, z, p, pn, ap []float64, beta float64) float64 {
	n := len(p)
	if k.pool.Serial() {
		return applyDirDotRange(op, z, p, pn, ap, beta, 0, n)
	}
	if k.inline(n) {
		return parallel.SumChunks(n, func(s, e int) float64 { return applyDirDotRange(op, z, p, pn, ap, beta, s, e) })
	}
	return k.pool.ReduceSum(n, k.partials, func(s, e int) float64 {
		return applyDirDotRange(op, z, p, pn, ap, beta, s, e)
	})
}

// applyDirDotRange is applyDirDot on cells [s, e), split as
// operator.applyRange splits a range: whole columns of a bare operator
// run dirColumn, the rest dirCells. The sum runs through both in cell
// order.
func applyDirDotRange(op *operator, z, p, pn, ap []float64, beta float64, s, e int) float64 {
	if !op.bare {
		return dirCells(op, z, p, pn, ap, beta, s, e, 0)
	}
	nz := op.nz
	sum := 0.0
	c := s
	if r := c % nz; r != 0 {
		h := min(c-r+nz, e)
		sum = dirCells(op, z, p, pn, ap, beta, c, h, sum)
		c = h
	}
	col := c / nz
	i, j := col%op.nx, col/op.nx
	for ; c+nz <= e; c += nz {
		sum = dirColumn(op, z, p, pn, ap, beta, c, i, j, sum)
		if i++; i == op.nx {
			i, j = 0, j+1
		}
	}
	if c < e {
		sum = dirCells(op, z, p, pn, ap, beta, c, e, sum)
	}
	return sum
}

// dirColumn is applyDirDot on the whole column (i, j) starting at c of
// a bare operator: operator.applyColumn on the direction z + β·p,
// adding each cell's pn·ap to sum in turn. A lateral neighbour outside
// the grid reads zero columns of z, p and coupling: 0 + β·0 is +0 for
// any finite β, and the 0·0 term leaves the value as it was.
func dirColumn(op *operator, z, p, pn, ap []float64, beta float64, c, i, j int, sum float64) float64 {
	nz := op.nz
	out, dn := ap[c:c+nz], pn[c:c+nz]
	dn = dn[:len(out)]
	zc, pc := z[c : c+nz][:len(out)], p[c : c+nz][:len(out)]
	d, gz := op.diag[c : c+nz][:len(out)], op.gzp[c : c+nz][:len(out)]
	e, w, n, s := i+1 < op.nx, i > 0, j+1 < op.ny, j > 0
	sy := op.nx * nz
	ge, ze, pe := op.column(op.gxp, c, e)[:len(out)], op.column(z, c+nz, e)[:len(out)], op.column(p, c+nz, e)[:len(out)]
	gw, zw, pw := op.column(op.gxp, c-nz, w)[:len(out)], op.column(z, c-nz, w)[:len(out)], op.column(p, c-nz, w)[:len(out)]
	gn, zn, pno := op.column(op.gyp, c, n)[:len(out)], op.column(z, c+sy, n)[:len(out)], op.column(p, c+sy, n)[:len(out)]
	gs, zs, ps := op.column(op.gyp, c-sy, s)[:len(out)], op.column(z, c-sy, s)[:len(out)], op.column(p, c-sy, s)[:len(out)]
	top := len(out) - 1
	xd, gd, xk := 0.0, 0.0, zc[0]+beta*pc[0]
	for k := 0; k < top; k++ {
		gk, xu := gz[k], zc[k+1]+beta*pc[k+1]
		v := d[k]*xk - ge[k]*(ze[k]+beta*pe[k])
		v -= gw[k] * (zw[k] + beta*pw[k])
		v -= gn[k] * (zn[k] + beta*pno[k])
		v -= gs[k] * (zs[k] + beta*ps[k])
		v -= gk * xu
		v -= gd * xd
		dn[k], out[k] = xk, v
		sum += xk * v
		xd, gd, xk = xk, gk, xu
	}
	v := d[top]*xk - ge[top]*(ze[top]+beta*pe[top])
	v -= gw[top] * (zw[top] + beta*pw[top])
	v -= gn[top] * (zn[top] + beta*pno[top])
	v -= gs[top] * (zs[top] + beta*ps[top])
	v -= gd * xd
	dn[top], out[top] = xk, v
	return sum + xk*v
}

// dirCells is applyDirDotRange's guarded per-cell path (see
// operator.applyCells), adding each cell's pn·ap to sum.
func dirCells(op *operator, z, p, pn, ap []float64, beta float64, s, e int, sum float64) float64 {
	sx, sy := op.nz, op.nx*op.nz
	for c := s; c < e; c++ {
		pc := z[c] + beta*p[c]
		v := op.diag[c] * pc
		if g := op.gxp[c]; g != 0 {
			v -= g * (z[c+sx] + beta*p[c+sx])
		}
		if c >= sx {
			if g := op.gxp[c-sx]; g != 0 {
				v -= g * (z[c-sx] + beta*p[c-sx])
			}
		}
		if g := op.gyp[c]; g != 0 {
			v -= g * (z[c+sy] + beta*p[c+sy])
		}
		if c >= sy {
			if g := op.gyp[c-sy]; g != 0 {
				v -= g * (z[c-sy] + beta*p[c-sy])
			}
		}
		if g := op.gzp[c]; g != 0 {
			v -= g * (z[c+1] + beta*p[c+1])
		}
		if c >= 1 {
			if g := op.gzp[c-1]; g != 0 {
				v -= g * (z[c-1] + beta*p[c-1])
			}
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
	if k.inline(n) {
		return math.Sqrt(parallel.SumChunks(n, func(s, e int) float64 { return residualRange(op, x, b, r, s, e) }))
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
	n := len(a)
	if k.pool.Serial() {
		return dot(a, b)
	}
	if k.inline(n) {
		return parallel.SumChunks(n, func(s, e int) float64 { return dot(a[s:e], b[s:e]) })
	}
	return k.pool.ReduceSum(n, k.partials, func(s, e int) float64 { return dot(a[s:e], b[s:e]) })
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
	if k.inline(n) {
		return math.Sqrt(parallel.SumChunks(n, func(s, e int) float64 { return updateNormRange(x, r, p, ap, alpha, s, e) }))
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
