package solver

// Geometric multigrid preconditioner for the steady PCG solve.
//
// Chip stacks are extremely anisotropic: lateral cells are hundreds of
// times wider than the BEOL/device layers are thick, and the z spacing
// in mesh.Grid.Zs is strongly nonuniform. Full coarsening would
// average incompatible z layers together, so the hierarchy
// semi-coarsens in x/y only (mesh.CoarsenOffsets pairs adjacent
// columns/rows; z is untouched at every level) and smooths with
// red-black z-line Gauss-Seidel sweeps: columns are colored by i+j
// parity, and each column's tridiagonal z-coupling is solved exactly
// (Thomas, with LU factors precomputed per level) against the lateral
// coupling to the opposite color. Line relaxation along the strong
// axis removes the stiff vertical coupling entirely, and exact
// per-color block solves smooth the lateral error far better than
// damped Jacobi at the same cost — semi-coarsening plus line
// relaxation is the standard robust choice for high-aspect-ratio
// anisotropy.
//
// Coarse operators are Galerkin-free: each level is rediscretized
// directly at the conductance level. Coarse x/y boundaries are a
// subset of fine boundaries, so every coarse face is a union of fine
// faces, and the coarse face conductances follow the same
// series/parallel (harmonic-mean) resistor rules as the fine
// assembly: lateral coarse couplings series-combine the half-cell
// interior faces with the interface faces per fine row and sum the
// rows in parallel; vertical couplings and boundary/capacitance
// excess sum in parallel over each 2×2 column aggregate. This works
// on any assembled operator — including the transient solver's
// diagonally augmented one — without needing the originating Problem.
//
// The V(1,1) cycle is a fixed symmetric positive definite linear
// operator, as PCG requires: prolongation is the exact transpose of
// restriction (aggregate sum down, piecewise-constant injection up),
// the post-smooth runs the colors in reverse order — each half-sweep
// is an exact block solve, hence A-self-adjoint, so black∘red is the
// A-adjoint of red∘black — and the 1×1-column coarsest level is
// solved exactly by one Thomas elimination. Exact block Gauss-Seidel
// half-sweeps are A-orthogonal projections, so no damping parameter
// is needed for positive definiteness.
//
// # Temporal tiling
//
// The production cycle fuses the kernels of each V-cycle leg so the
// fine grid is streamed once per leg instead of once per kernel —
// the sweeps are memory-bound, so bytes moved, not flops, set the
// cost. Both fusions follow from the red-black structure and are
// exact (bitwise) rewrites of the textbook sequence:
//
// Down-leg (pre-smooth → residual → restrict): after the black
// half-sweep relaxes a black column exactly, the residual vanishes on
// it, so restriction sums red-cell residuals only — and a red cell's
// residual is final as soon as its black neighbors are smoothed. The
// black half-sweep therefore walks y-bands of coarse rows and emits
// each coarse row's restricted residual as soon as the fine row above
// it is smoothed (a trailing emit), while the data is still in cache.
// Band-boundary fine rows are smoothed in a small preliminary pass so
// bands never read a neighbor band's in-flight rows; black columns
// are mutually independent, so any smoothing order is bitwise
// identical, and each rc cell keeps the exact nested j,i accumulation
// order of the unfused restriction.
//
// Up-leg (prolong → post-smooth): the post-smooth relaxes black
// columns first (reverse color order), overwriting every black cell
// without reading it — so prolonged black values are dead — and the
// following red half-sweep reads only black values. Prolonged red
// values are thus read exactly once, as lateral operands of the black
// gather, and the prolongation pass is folded away entirely: the
// black gather reads x[nb] + xc[aggregate(nb)] on the fly, the same
// single addition the materialized pass performed.
//
// The unfused textbook cycle lives in multigrid_tiling_test.go as
// the oracle: the suite pins the production cycle to it bitwise at
// every worker count and in both precision tiers.
//
// # Precision tiers
//
// The hierarchy is generic over the arithmetic type F (float32 or
// float64). Construction — coarsening, Thomas factorization — always
// runs in float64; the per-level coefficient, factor, and scratch
// arrays are then stored in F (the float64 tier aliases the operator
// arrays, zero-copy). The float32 tier halves the bytes every sweep
// moves. It exists for preconditioning only: the outer PCG vectors
// and every dot-product reduction stay float64, so the f32 V-cycle
// only changes how fast the preconditioner approximates A⁻¹, not what
// the solve converges to (the MMS suite pins solution accuracy).
//
// Determinism: smoothing, restriction, and prolongation all run
// through internal/parallel with fixed-grain chunking and no
// floating-point reductions, so one V-cycle is bitwise identical at
// every worker count (serial included) in both tiers; the solve-level
// contract is then identical to the other preconditioners'.
//
// Dispatch: each level follows internal/parallel's dispatch rule on
// its own column regions (mgLevel.dispatch). A level whose columns
// split into too few chunks to pay for waking the pool's helpers runs
// every sweep as one range and its down-leg as one band, on the
// caller; typically the fine level of a large grid dispatches and its
// coarse levels do not. Since any partition gives the same bits, the
// rule moves no result.

import (
	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/parallel"
)

// mgMaxLevels bounds the hierarchy depth (2^40 cells per axis is far
// beyond any realistic grid — this is a runaway guard, not a tuning
// knob). A hierarchy cut off here leaves a non-trivial coarsest grid,
// which the exact-per-column coarsest lineSolve then merely smooths —
// still a valid SPD preconditioner, just a slower one.
const mgMaxLevels = 40

// mgFloat constrains a multigrid precision tier's arithmetic type.
type mgFloat interface {
	float32 | float64
}

// toTier converts a float64 array to tier F. For F = float64 the
// original slice is returned unchanged (zero-copy — this is what
// keeps the f64 tier bit-for-bit on the operator's own arrays); for
// float32 each element is rounded once, here, never on the hot path.
func toTier[F mgFloat](src []float64) []F {
	if dst, ok := any(src).([]F); ok {
		return dst
	}
	dst := make([]F, len(src))
	for i, v := range src {
		dst[i] = F(v)
	}
	return dst
}

// mgLevel is one grid level of the multigrid hierarchy, with every
// hot-path array stored in the tier's precision.
type mgLevel[F mgFloat] struct {
	nx, ny, nz int
	sy, sz     int // index strides
	// Stencil of this level's operator (see operator): positive face
	// conductances plus the full diagonal. A line-only level (see
	// newMGLevel) holds gzp alone.
	gxp, gyp, gzp, diag []F
	// Coarsening maps to the next-coarser level (nil on the coarsest):
	// xoff/yoff are the mesh.CoarsenOffsets aggregate boundaries,
	// xmap/ymap map each fine axis index to its aggregate.
	xoff, yoff []int
	xmap, ymap []int
	// Per-cell Thomas LU factors of the column tridiagonals (sub/super
	// diagonals −gzp, full operator diagonal): cpf is the eliminated
	// super-diagonal coefficient, minv the inverse pivot. The operator
	// is fixed for the lifetime of the hierarchy, so factoring once
	// per level halves the per-sweep column-solve cost (no divisions
	// on the hot path).
	cpf, minv []F
	// dp is the full-grid forward-elimination scratch of the
	// layer-wise smoother (nil on a level that never smooths: the
	// coarsest, whose lineSolve eliminates straight into its output).
	// Making it grid-sized (instead of one column's worth) is what
	// lets the smoother sweep layer by layer in linear memory order
	// rather than column by column at stride sz — the column walk
	// touched one cache line per z-layer per column and defeated the
	// hardware prefetchers.
	dp []F
	// colGrain is the parallel column-range grain for this level,
	// rounded up to whole rows so each worker strip runs linearly
	// through every layer.
	colGrain int
	// dispatch records whether this level's column regions have enough
	// chunks to wake the pool's helpers (parallel.Pool.Dispatches); a
	// level that does not runs each sweep as one range on the caller.
	dispatch bool
	// bands is the number of y-bands smoothRestrict splits a
	// dispatched level's down-leg into (0 runs it as one band), and
	// spans the band-boundary fine-row ranges its phase one smooths
	// first. Both depend only on the coarse row count, the band count
	// and yoff, so they are built once, with the level.
	bands int
	spans []rowRange
	// Scratch: b is the restricted right-hand side and x the solution
	// estimate (levels below the finest; the finest uses the caller's
	// r/z).
	b, x []F
}

// multigrid is the assembled hierarchy for one precision tier.
type multigrid[F mgFloat] struct {
	levels []*mgLevel[F]
	kr     *kern
	// coarse holds the coarse operators whose arrays the levels below
	// the finest alias (tier F64 only; other tiers convert them and
	// hand them back to the free list during construction).
	coarse []*operator
	// rbuf/zbuf convert the caller's float64 r/z at the fine-level
	// boundary; nil when F is float64 (apply runs in place).
	rbuf, zbuf []F
}

// newMultigridTier builds the semi-coarsened hierarchy for op in
// precision tier F.
func newMultigridTier[F mgFloat](op *operator, kr *kern) *multigrid[F] {
	return newHierarchy[F](op, kr, mgMaxLevels)
}

// newZLineTier builds the ZLine preconditioner for op in tier F: the
// hierarchy cut off at one level, whose apply is the coarsest-level
// lineSolve — the exact per-column Thomas solve against the full
// diagonal.
func newZLineTier[F mgFloat](op *operator, kr *kern) *multigrid[F] {
	return newHierarchy[F](op, kr, 1)
}

// newHierarchy coarsens op until a single column is left or
// maxLevels levels exist. The construction is a few O(n) float64
// passes — cheap next to a single PCG iteration — and runs serially
// for simplicity and determinism; only the finished per-level arrays
// are stored in F. Every float64 array it draws goes back to the free
// list through free, or at once when tier F holds a converted copy.
func newHierarchy[F mgFloat](op *operator, kr *kern, maxLevels int) *multigrid[F] {
	mg := &multigrid[F]{kr: kr}
	_, native := any(op.diag).([]F)
	pool := kr.pool
	for cur := op; ; {
		last := (cur.nx == 1 && cur.ny == 1) || len(mg.levels)+1 >= maxLevels
		lvl := newMGLevel[F](cur, last)
		lvl.dispatch = pool.Dispatches((lvl.sz + lvl.colGrain - 1) / lvl.colGrain)
		mg.levels = append(mg.levels, lvl)
		var next *operator
		if !last {
			lvl.xoff = mesh.CoarsenOffsets(cur.nx)
			lvl.yoff = mesh.CoarsenOffsets(cur.ny)
			lvl.xmap = aggregateMap(lvl.xoff, cur.nx)
			lvl.ymap = aggregateMap(lvl.yoff, cur.ny)
			lvl.dp = getTier[F](len(cur.diag))
			if lvl.dispatch {
				lvl.bands, lvl.spans = bandSpans(lvl.yoff, pool.Workers())
			}
			next = coarsenOperator(cur, lvl.xoff, lvl.yoff)
		}
		if cur != op {
			// The level and the next coarsening were cur's last readers.
			if native {
				mg.coarse = append(mg.coarse, cur)
			} else {
				cur.free()
			}
		}
		if last {
			break
		}
		cur = next
	}
	for _, lvl := range mg.levels[1:] {
		lvl.b = getTier[F](len(lvl.gzp))
		lvl.x = getTier[F](len(lvl.gzp))
	}
	if !native {
		n := len(op.diag)
		mg.rbuf = make([]F, n)
		mg.zbuf = make([]F, n)
	}
	return mg
}

// free hands the hierarchy's float64 arrays back to the free list:
// the coarse operators, and every level's Thomas factors and scratch.
// The finest level's stencil belongs to the operator the hierarchy
// was built on.
func (mg *multigrid[F]) free() {
	for _, co := range mg.coarse {
		co.free()
	}
	for _, lvl := range mg.levels {
		putTier(lvl.cpf, lvl.minv, lvl.dp, lvl.b, lvl.x)
	}
}

// newMGLevel captures one operator as a tier-F level: stencil and
// Thomas factors converted once, column grain fixed. A lineOnly level
// — the one-level ZLine hierarchy, or multigrid's coarsest — runs
// only lineSolve, which reads gzp and the factors, so it skips gxp,
// gyp and diag.
func newMGLevel[F mgFloat](cur *operator, lineOnly bool) *mgLevel[F] {
	lvl := &mgLevel[F]{
		nx: cur.nx, ny: cur.ny, nz: cur.nz,
		sy: cur.sy, sz: cur.sz,
		gzp: toTier[F](cur.gzp),
	}
	if !lineOnly {
		lvl.gxp, lvl.gyp, lvl.diag = toTier[F](cur.gxp), toTier[F](cur.gyp), toTier[F](cur.diag)
	}
	cpf, minv := columnFactors(cur)
	lvl.cpf, lvl.minv = toTier[F](cpf), toTier[F](minv)
	if _, native := any(cpf).([]F); !native {
		putFloats(cpf, minv)
	}
	cg := parallel.Grain / cur.nz
	if cg < 1 {
		cg = 1
	}
	if cur.nx > 1 {
		cg = (cg + cur.nx - 1) / cur.nx * cur.nx
	}
	lvl.colGrain = cg
	return lvl
}

// columnFactors runs the Thomas forward elimination of every column
// tridiagonal once, in float64, returning the per-cell eliminated
// super-diagonal (cpf) and reciprocal pivot (minv).
func columnFactors(op *operator) (cpf, minv []float64) {
	n := len(op.diag)
	cpf = getFloats(n)
	minv = getFloats(n)
	sz := op.sz
	// Layer-by-layer (linear memory) order; every column eliminates
	// independently. gzp is zero on the top layer, so cpf there is
	// harmlessly zero and never read by the back-substitution.
	for c := range minv {
		m := op.diag[c]
		if c >= sz {
			m += op.gzp[c-sz] * cpf[c-sz]
		}
		minv[c] = 1 / m
		cpf[c] = -op.gzp[c] / m
	}
	return cpf, minv
}

// aggregateMap inverts the offsets: fine index → aggregate index.
func aggregateMap(off []int, n int) []int {
	m := make([]int, n)
	for a := 0; a+1 < len(off); a++ {
		for f := off[a]; f < off[a+1]; f++ {
			m[f] = a
		}
	}
	return m
}

// coarsenOperator rediscretizes op on the x/y-aggregated grid. The
// coarse operator carries no right-hand side: only newMGLevel and the
// next coarsening read it, and neither reads b.
func coarsenOperator(op *operator, xoff, yoff []int) *operator {
	nxc, nyc, nz := len(xoff)-1, len(yoff)-1, op.nz
	nc := nxc * nyc * nz
	co := &operator{
		nx: nxc, ny: nyc, nz: nz,
		sy: nxc, sz: nxc * nyc,
		gxp:  getFloats(nc),
		gyp:  getFloats(nc),
		gzp:  getFloats(nc),
		diag: getFloats(nc),
	}
	// Fine-cell "excess": the diagonal mass that is not face coupling —
	// boundary conductance and (for the transient operator) the
	// capacitance term. It sums in parallel over each aggregate.
	nf := len(op.diag)
	excess := getFloats(nf)
	defer putFloats(excess)
	for c := 0; c < nf; c++ {
		excess[c] = op.diag[c]
	}
	for c := 0; c < nf; c++ {
		if g := op.gxp[c]; g != 0 {
			excess[c] -= g
			excess[c+1] -= g
		}
		if g := op.gyp[c]; g != 0 {
			excess[c] -= g
			excess[c+op.sy] -= g
		}
		if g := op.gzp[c]; g != 0 {
			excess[c] -= g
			excess[c+op.sz] -= g
		}
	}
	fidx := func(i, j, k int) int { return (k*op.ny+j)*op.nx + i }
	for k := 0; k < nz; k++ {
		for J := 0; J < nyc; J++ {
			for I := 0; I < nxc; I++ {
				C := (k*nyc+J)*nxc + I
				// Parallel sums over the aggregate: vertical coupling and
				// excess (coarse faces/boundaries are unions of fine ones).
				for j := yoff[J]; j < yoff[J+1]; j++ {
					for i := xoff[I]; i < xoff[I+1]; i++ {
						c := fidx(i, j, k)
						co.gzp[C] += op.gzp[c]
						if e := excess[c]; e > 0 { // clamp rounding noise
							co.diag[C] += e
						}
					}
				}
				// Coarse x face to aggregate I+1: per fine row, series-
				// combine (harmonic mean) the half-cell interior faces
				// with the interface face, then sum the rows in parallel.
				if I+1 < nxc {
					iL := xoff[I+1] - 1
					var g float64
					for j := yoff[J]; j < yoff[J+1]; j++ {
						c := fidx(iL, j, k)
						r := 1 / op.gxp[c]
						if xoff[I+1]-xoff[I] == 2 {
							r += 1 / (2 * op.gxp[c-1])
						}
						if xoff[I+2]-xoff[I+1] == 2 {
							r += 1 / (2 * op.gxp[c+1])
						}
						g += 1 / r
					}
					co.gxp[C] = g
				}
				// Coarse y face, symmetric.
				if J+1 < nyc {
					jL := yoff[J+1] - 1
					var g float64
					for i := xoff[I]; i < xoff[I+1]; i++ {
						c := fidx(i, jL, k)
						r := 1 / op.gyp[c]
						if yoff[J+1]-yoff[J] == 2 {
							r += 1 / (2 * op.gyp[c-op.nx])
						}
						if yoff[J+2]-yoff[J+1] == 2 {
							r += 1 / (2 * op.gyp[c+op.nx])
						}
						g += 1 / r
					}
					co.gyp[C] = g
				}
			}
		}
	}
	// Accumulate couplings into the diagonal (excess is already there).
	for c := 0; c < nc; c++ {
		if g := co.gxp[c]; g != 0 {
			co.diag[c] += g
			co.diag[c+1] += g
		}
		if g := co.gyp[c]; g != 0 {
			co.diag[c] += g
			co.diag[c+co.sy] += g
		}
		if g := co.gzp[c]; g != 0 {
			co.diag[c] += g
			co.diag[c+co.sz] += g
		}
	}
	return co
}

// apply is the preconditioner action z ← B·r (one V-cycle). For the
// float64 tier it runs in place on the caller's vectors; other tiers
// convert at the fine-level boundary (elementwise, chunked — so the
// conversion is as deterministic as the cycle itself).
func (mg *multigrid[F]) apply(r, z []float64) {
	if rf, ok := any(r).([]F); ok {
		mg.cycle(0, rf, any(z).([]F))
		return
	}
	rb, zb := mg.rbuf, mg.zbuf
	pool := mg.kr.pool
	if !pool.Dispatches(parallel.NumChunks(len(r))) {
		for i, v := range r {
			rb[i] = F(v)
		}
		mg.cycle(0, rb, zb)
		for i, v := range zb {
			z[i] = float64(v)
		}
		return
	}
	pool.For(len(r), func(s, e int) {
		for i := s; i < e; i++ {
			rb[i] = F(r[i])
		}
	})
	mg.cycle(0, rb, zb)
	pool.For(len(z), func(s, e int) {
		for i := s; i < e; i++ {
			z[i] = float64(zb[i])
		}
	})
}

// cycle runs one V(1,1) cycle solving lvl·x ≈ b with x entered as
// scratch (fully overwritten by the pre-smooth, so no zeroing pass is
// needed): the temporally tiled cycle of the package comment.
func (mg *multigrid[F]) cycle(l int, b, x []F) {
	lvl := mg.levels[l]
	if l == len(mg.levels)-1 {
		// Coarsest level: a single z column — solve exactly with one
		// Thomas elimination (the operator is purely tridiagonal once
		// nx = ny = 1). On the one-level ZLine hierarchy this is the
		// whole preconditioner.
		mg.lineSolve(lvl, b, x)
		return
	}
	next := mg.levels[l+1]
	// Tiled down-leg: red half-sweep from zero, then the fused black
	// half-sweep + residual restriction over y-bands.
	mg.solveColumns(lvl, b, x, 0, false)
	mg.smoothRestrict(lvl, next, b, x, next.b)
	mg.cycle(l+1, next.b, next.x)
	// Tiled up-leg: the prolongation is folded into the black
	// post-smooth's gather; the red half-sweep then reads only final
	// black values. Colors reversed relative to the pre-smooth — each
	// half-sweep is an exact block solve and therefore A-self-adjoint,
	// so black∘red is the A-adjoint of red∘black and the V-cycle stays
	// symmetric.
	mg.smoothCorrect(lvl, next, b, x, next.x)
	mg.solveColumns(lvl, b, x, 0, true)
}

// solveColumns relaxes the columns of one color exactly, fanning
// contiguous column ranges out across the pool when the level
// dispatches. Columns are independent tridiagonal solves writing
// disjoint cells, so any partition produces bit-identical results.
func (mg *multigrid[F]) solveColumns(lvl *mgLevel[F], b, x []F, color int, gather bool) {
	sz := lvl.sz
	if !lvl.dispatch {
		lvl.smoothRange(b, x, color, gather, 0, sz)
		return
	}
	mg.kr.pool.ForGrain(sz, lvl.colGrain, func(_, s, e int) {
		lvl.smoothRange(b, x, color, gather, s, e)
	})
}

// rowSpan returns the in-row iteration bounds for flat column range
// [lo, hi) intersected with the row starting at flat index rs: the
// first in-row offset of the given color and the end offset. Cells
// of one color are two apart within a row.
func rowSpan(nx, lo, hi, rs, j, color int) (i, ie int) {
	if rs < lo {
		i = lo - rs
	}
	ie = nx
	if rs+ie > hi {
		ie = hi - rs
	}
	if (i+j)&1 != color {
		i++
	}
	return i, ie
}

// smoothRange relaxes the color-matching columns within flat column
// range [lo, hi): a fused lateral-gather + Thomas forward elimination
// sweeping the layers bottom-up, then back substitution sweeping
// top-down. Processing whole layers in linear memory order (instead
// of one column at a time, which strides sz — one cache line per
// z-layer per cell) is the smoother's main cache optimization; the
// per-cell arithmetic is exactly the per-column Thomas recurrence, so
// results are bitwise identical to the column-at-a-time order
// (columns never couple within a color).
func (lvl *mgLevel[F]) smoothRange(b, x []F, color int, gather bool, lo, hi int) {
	nx, sy, sz, nz := lvl.nx, lvl.sy, lvl.sz, lvl.nz
	gxp, gyp, gzp := lvl.gxp, lvl.gyp, lvl.gzp
	minv, dp := lvl.minv, lvl.dp
	row0 := lo - lo%nx
	// Forward elimination: dp[c] = (rhs[c] + gzp[c−sz]·dp[c−sz])·minv[c]
	// with rhs gathered in place (b plus lateral coupling to the
	// fixed opposite color).
	for k := 0; k < nz; k++ {
		base := k * sz
		for rs := row0; rs < hi; rs += nx {
			j := rs / nx
			i, ie := rowSpan(nx, lo, hi, rs, j, color)
			if gather {
				for ; i < ie; i += 2 {
					c := base + rs + i
					s := b[c]
					if g := gxp[c]; g != 0 {
						s += g * x[c+1]
					}
					if c >= 1 {
						if g := gxp[c-1]; g != 0 {
							s += g * x[c-1]
						}
					}
					if g := gyp[c]; g != 0 {
						s += g * x[c+sy]
					}
					if c >= sy {
						if g := gyp[c-sy]; g != 0 {
							s += g * x[c-sy]
						}
					}
					if c >= sz {
						s += gzp[c-sz] * dp[c-sz]
					}
					dp[c] = s * minv[c]
				}
			} else {
				for ; i < ie; i += 2 {
					c := base + rs + i
					s := b[c]
					if c >= sz {
						s += gzp[c-sz] * dp[c-sz]
					}
					dp[c] = s * minv[c]
				}
			}
		}
	}
	lvl.backSubstitute(x, color, lo, hi)
}

// backSubstitute finishes the column solves of smoothRange (and its
// fused variants): top layer is dp directly, then
// x[c] = dp[c] − cpf[c]·x[c+sz] layer by layer downward.
func (lvl *mgLevel[F]) backSubstitute(x []F, color, lo, hi int) {
	nx, sz, nz := lvl.nx, lvl.sz, lvl.nz
	cpf, dp := lvl.cpf, lvl.dp
	row0 := lo - lo%nx
	top := (nz - 1) * sz
	for rs := row0; rs < hi; rs += nx {
		j := rs / nx
		i, ie := rowSpan(nx, lo, hi, rs, j, color)
		for ; i < ie; i += 2 {
			c := top + rs + i
			x[c] = dp[c]
		}
	}
	for k := nz - 2; k >= 0; k-- {
		base := k * sz
		for rs := row0; rs < hi; rs += nx {
			j := rs / nx
			i, ie := rowSpan(nx, lo, hi, rs, j, color)
			for ; i < ie; i += 2 {
				c := base + rs + i
				x[c] = dp[c] - cpf[c]*x[c+sz]
			}
		}
	}
}

// lineSolve solves the z-line system of every column exactly: the
// ZLine preconditioner, and on the coarsest (1×1-column) level the
// exact solve of the whole level. Columns write disjoint entries, so
// any partition of the column range gives the same bits at any
// worker count.
func (mg *multigrid[F]) lineSolve(lvl *mgLevel[F], r, z []F) {
	if !lvl.dispatch {
		lvl.lineRange(r, z, 0, lvl.sz)
		return
	}
	mg.kr.pool.ForGrain(lvl.sz, lvl.colGrain, func(_, s, e int) {
		lvl.lineRange(r, z, s, e)
	})
}

// lineRange solves the columns in flat column range [lo, hi): a
// forward sweep bottom-up, z = (r + gzp·z_below)·minv written
// straight into z, then back substitution top-down,
// z −= cpf·z_above, each plane in linear memory order rather than one
// column at a time at stride sz. Every cell evaluates the per-column
// Thomas recurrence's own expressions and columns never couple, so
// the result is bitwise identical to solving the columns one by one
// (TestEquivalenceZLinePlanes).
func (lvl *mgLevel[F]) lineRange(r, z []F, lo, hi int) {
	sz, n := lvl.sz, len(lvl.minv)
	// Each plane works on equal-length subslices, so the compiler
	// drops the per-cell bounds checks.
	zc, rc, mc := z[lo:hi], r[lo:hi], lvl.minv[lo:hi]
	rc, mc = rc[:len(zc)], mc[:len(zc)]
	for i := range zc {
		zc[i] = rc[i] * mc[i]
	}
	for base := sz; base < n; base += sz {
		zc := z[base+lo : base+hi]
		zb := z[base-sz+lo : base-sz+hi][:len(zc)]
		gb := lvl.gzp[base-sz+lo : base-sz+hi][:len(zc)]
		rc := r[base+lo : base+hi][:len(zc)]
		mc := lvl.minv[base+lo : base+hi][:len(zc)]
		for i := range zc {
			zc[i] = (rc[i] + gb[i]*zb[i]) * mc[i]
		}
	}
	for base := n - 2*sz; base >= 0; base -= sz {
		zc := z[base+lo : base+hi]
		za := z[base+sz+lo : base+sz+hi][:len(zc)]
		cc := lvl.cpf[base+lo : base+hi][:len(zc)]
		for i := range zc {
			zc[i] -= cc[i] * za[i]
		}
	}
}

// smoothRestrict is the fused down-leg tail: the black half-sweep of
// the pre-smooth plus the restriction of the resulting residual, in
// one pass over y-bands of coarse rows. Fine rows are smoothed in
// band order and each coarse row's rc values are emitted as soon as
// the fine row above it is final (a trailing emit), so the restrict
// reads x while the smoother's writes are still cache-hot.
//
// A level that dispatches splits this into y-bands, one per worker at
// most. Band-boundary fine rows (the last row before and first row of
// each band start) are smoothed first, on the caller, so phase two
// never reads a row another band is still writing: each band writes
// only its interior rows and reads beyond its edges only phase-one
// rows. Black columns are mutually independent (they read b and red
// values fixed by the preceding half-sweep), so this smoothing order
// is bitwise identical to any other; rc cells keep the unfused
// kernel's exact per-cell accumulation order, so the whole fusion is
// a bitwise rewrite at every worker count.
func (mg *multigrid[F]) smoothRestrict(fine, coarse *mgLevel[F], b, x, rc []F) {
	nyc := coarse.ny
	bands := fine.bands
	if bands <= 1 {
		mg.bandRestrict(fine, coarse, b, x, rc, 0, nyc, 0, fine.ny)
		return
	}
	// Phase one: the boundary rows are a few per band, too little work
	// to wake the helpers for.
	nx := fine.nx
	for _, sp := range fine.spans {
		fine.smoothRange(b, x, 1, true, sp.lo*nx, sp.hi*nx)
	}
	// Phase two: per band, smooth the interior rows coarse row by
	// coarse row with the trailing restrict emit.
	yoff := fine.yoff
	mg.kr.pool.RunBands(bands, func(_, w int) {
		J0, J1 := parallel.Partition(nyc, bands, w)
		rowLo, rowHi := yoff[J0], yoff[J1]
		if w > 0 {
			rowLo++ // boundary rows already smoothed in phase one
		}
		if w < bands-1 {
			rowHi--
		}
		mg.bandRestrict(fine, coarse, b, x, rc, J0, J1, rowLo, rowHi)
	})
}

// rowRange is a range [lo, hi) of fine rows.
type rowRange struct{ lo, hi int }

// bandSpans splits the coarse rows of a level with coarsening offsets
// yoff into y-bands for smoothRestrict, one per worker at most and
// one coarse row at least, and returns the band count with the
// band-boundary fine-row ranges phase one smooths. Spans merge when
// single-row bands make neighboring boundaries overlap, so no row is
// written twice. A level with one band needs no spans.
func bandSpans(yoff []int, workers int) (int, []rowRange) {
	nyc := len(yoff) - 1
	bands := min(workers, nyc)
	if bands <= 1 {
		return 1, nil
	}
	spans := make([]rowRange, 0, bands-1)
	for w := 1; w < bands; w++ {
		J0, _ := parallel.Partition(nyc, bands, w)
		lo, hi := yoff[J0]-1, yoff[J0]+1
		if len(spans) > 0 && lo <= spans[len(spans)-1].hi {
			spans[len(spans)-1].hi = hi
		} else {
			spans = append(spans, rowRange{lo, hi})
		}
	}
	return bands, spans
}

// bandRestrict smooths the black columns of fine rows [rowLo, rowHi)
// coarse row by coarse row, emitting coarse row J−1's restriction
// right after coarse row J's rows are smoothed (J−1's red cells then
// have all their black neighbors final, through fine row yoff[J]).
// The band's last coarse row is emitted after the loop — its top
// neighbor row is either a phase-one boundary row or past the grid.
func (mg *multigrid[F]) bandRestrict(fine, coarse *mgLevel[F], b, x, rc []F, J0, J1, rowLo, rowHi int) {
	nx := fine.nx
	yoff := fine.yoff
	for J := J0; J < J1; J++ {
		lo, hi := yoff[J], yoff[J+1]
		if lo < rowLo {
			lo = rowLo
		}
		if hi > rowHi {
			hi = rowHi
		}
		if lo < hi {
			fine.smoothRange(b, x, 1, true, lo*nx, hi*nx)
		}
		if J > J0 {
			emitRestrict(fine, coarse, b, x, rc, J-1)
		}
	}
	emitRestrict(fine, coarse, b, x, rc, J1-1)
}

// emitRestrict writes coarse row J of rc = R·(b − A·x). The
// pre-smooth's black half-sweep solved every black column exactly
// with red values fixed, so the residual vanishes on black cells and
// only red cells contribute — the kernel evaluates the 7-point
// residual on half the cells and never materializes the residual
// vector. Per coarse cell the fine aggregate is visited in the same
// nested j,i order as the reference restrictResidual (the test
// oracle in multigrid_tiling_test.go), so each rc value is
// bit-identical regardless of which rows/bands produced it.
func emitRestrict[F mgFloat](fine, coarse *mgLevel[F], b, x, rc []F, J int) {
	nx, ny, sy, sz := fine.nx, fine.ny, fine.sy, fine.sz
	nxc, nyc := coarse.nx, coarse.ny
	xoff, yoff := fine.xoff, fine.yoff
	gxp, gyp, gzp, diag := fine.gxp, fine.gyp, fine.gzp, fine.diag
	for k := 0; k < fine.nz; k++ {
		cb := (k*nyc + J) * nxc
		for I := 0; I < nxc; I++ {
			var sum F
			for j := yoff[J]; j < yoff[J+1]; j++ {
				for i := xoff[I]; i < xoff[I+1]; i++ {
					if (i+j)&1 != 0 {
						continue // exactly-relaxed color: zero residual
					}
					c := (k*ny+j)*nx + i
					r := b[c] - diag[c]*x[c]
					if g := gxp[c]; g != 0 {
						r += g * x[c+1]
					}
					if c >= 1 {
						if g := gxp[c-1]; g != 0 {
							r += g * x[c-1]
						}
					}
					if g := gyp[c]; g != 0 {
						r += g * x[c+sy]
					}
					if c >= sy {
						if g := gyp[c-sy]; g != 0 {
							r += g * x[c-sy]
						}
					}
					if g := gzp[c]; g != 0 {
						r += g * x[c+sz]
					}
					if c >= sz {
						if g := gzp[c-sz]; g != 0 {
							r += g * x[c-sz]
						}
					}
					sum += r
				}
			}
			rc[cb+I] = sum
		}
	}
}

// smoothCorrect is the fused up-leg head: the black half-sweep of the
// post-smooth with the coarse correction folded into its gather. The
// black half-sweep overwrites every black cell without reading it, so
// prolonged black values are dead; prolonged red values are read
// exactly once, here, as lateral operands — computed on the fly as
// x[nb] + xc[aggregate(nb)], the identical single addition the
// materialized prolongation performed. The following red half-sweep
// (in cycle) reads only black values, so no prolonged value is ever
// needed again and the prolongation pass disappears entirely.
func (mg *multigrid[F]) smoothCorrect(fine, coarse *mgLevel[F], b, x, xc []F) {
	sz := fine.sz
	if !fine.dispatch {
		fine.correctRange(b, x, xc, coarse.nx, coarse.ny, 0, sz)
		return
	}
	mg.kr.pool.ForGrain(sz, fine.colGrain, func(_, s, e int) {
		fine.correctRange(b, x, xc, coarse.nx, coarse.ny, s, e)
	})
}

// correctRange is smoothRange for the black color with the coarse
// correction xc added to every lateral (red) operand on the fly.
func (lvl *mgLevel[F]) correctRange(b, x, xc []F, nxc, nyc int, lo, hi int) {
	nx, sy, sz, nz := lvl.nx, lvl.sy, lvl.sz, lvl.nz
	gxp, gyp, gzp := lvl.gxp, lvl.gyp, lvl.gzp
	minv, dp := lvl.minv, lvl.dp
	xmap, ymap := lvl.xmap, lvl.ymap
	row0 := lo - lo%nx
	for k := 0; k < nz; k++ {
		base := k * sz
		kc := k * nyc * nxc
		for rs := row0; rs < hi; rs += nx {
			j := rs / nx
			i, ie := rowSpan(nx, lo, hi, rs, j, 1)
			c0 := kc + ymap[j]*nxc // coarse base of this fine row
			for ; i < ie; i += 2 {
				c := base + rs + i
				s := b[c]
				if g := gxp[c]; g != 0 {
					s += g * (x[c+1] + xc[c0+xmap[i+1]])
				}
				if c >= 1 {
					if g := gxp[c-1]; g != 0 {
						s += g * (x[c-1] + xc[c0+xmap[i-1]])
					}
				}
				if g := gyp[c]; g != 0 {
					s += g * (x[c+sy] + xc[kc+ymap[j+1]*nxc+xmap[i]])
				}
				if c >= sy {
					if g := gyp[c-sy]; g != 0 {
						s += g * (x[c-sy] + xc[kc+ymap[j-1]*nxc+xmap[i]])
					}
				}
				if c >= sz {
					s += gzp[c-sz] * dp[c-sz]
				}
				dp[c] = s * minv[c]
			}
		}
	}
	lvl.backSubstitute(x, 1, lo, hi)
}
