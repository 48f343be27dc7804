package solver

import (
	"fmt"
	"testing"

	"thermalscaffold/internal/mesh"
)

// The row-major textbook V-cycle: every level stored x-fastest (cell
// (i, j, k) at (k·ny + j)·nx + i, grid order), rebuilt by the
// row-major rediscretization from the operator transposed to grid
// order, and run as the textbook kernel sequence — pre-smooth,
// residual restriction, coarse solve, prolongation, post-smooth — each
// a separate full-grid pass. It is the oracle the column-major
// production cycle (multigrid.go) is pinned to, bitwise, at every
// worker count and in both precision tiers: the production cycle runs
// on a vector in column order, the oracle on the same vector in grid
// order.

// rowLevel is one level of the row-major reference hierarchy.
type rowLevel[F mgFloat] struct {
	nx, ny, nz int
	sy, sz     int
	gxp, gyp   []F
	gzp, diag  []F
	xoff, yoff []int
	xmap, ymap []int
	cpf, minv  []F
	// dp is the full-grid forward-elimination scratch of the
	// layer-wise smoother.
	dp   []F
	b, x []F
}

// rowHierarchy is the reference hierarchy: the row-major smoothing
// levels above the 1×1 coarsest, which is the production line level
// (one column is the same in either layout).
type rowHierarchy[F mgFloat] struct {
	levels   []*rowLevel[F]
	coarsest *mgLevel[F]
	cb, cx   []F // the coarsest level's right-hand side and solution
}

// newRowHierarchy builds the reference hierarchy for the grid-order
// operator op.
func newRowHierarchy[F mgFloat](op *rowOperator, kr *kern) *rowHierarchy[F] {
	h := &rowHierarchy[F]{}
	for cur := op; ; {
		n := len(cur.diag)
		if cur.nx == 1 && cur.ny == 1 {
			cpf, minv := rowFactors(cur)
			h.coarsest = newLineLevel[F](1, 1, cur.nz, cur.gzp, cpf, minv, kr.pool)
			h.cb, h.cx = make([]F, n), make([]F, n)
			return h
		}
		cpf, minv := rowFactors(cur)
		lvl := &rowLevel[F]{
			nx: cur.nx, ny: cur.ny, nz: cur.nz, sy: cur.sy, sz: cur.sz,
			gxp: toTier[F](cur.gxp), gyp: toTier[F](cur.gyp),
			gzp: toTier[F](cur.gzp), diag: toTier[F](cur.diag),
			cpf: toTier[F](cpf), minv: toTier[F](minv),
			xoff: mesh.CoarsenOffsets(cur.nx), yoff: mesh.CoarsenOffsets(cur.ny),
			dp: make([]F, n), b: make([]F, n), x: make([]F, n),
		}
		lvl.xmap, lvl.ymap = aggregateMap(lvl.xoff, cur.nx), aggregateMap(lvl.yoff, cur.ny)
		h.levels = append(h.levels, lvl)
		cur = coarsenOperator(cur, lvl.xoff, lvl.yoff)
	}
}

// apply is multigrid.apply through the reference cycle, serially.
func (h *rowHierarchy[F]) apply(r, z []float64) {
	rb, zb := make([]F, len(r)), make([]F, len(z))
	for i, v := range r {
		rb[i] = F(v)
	}
	h.cycle(0, rb, zb)
	for i, v := range zb {
		z[i] = float64(v)
	}
}

// cycle is the textbook V(1,1) cycle with every kernel a separate pass.
func (h *rowHierarchy[F]) cycle(l int, b, x []F) {
	if l == len(h.levels) {
		h.coarsest.lineColumns(b, x, 0, 1)
		return
	}
	lvl := h.levels[l]
	nb, nx, nxc, nyc := h.cb, h.cx, 1, 1
	if l+1 < len(h.levels) {
		next := h.levels[l+1]
		nb, nx, nxc, nyc = next.b, next.x, next.nx, next.ny
	}
	lvl.rbLineSmooth(b, x, false, true)
	lvl.restrictResidual(nxc, nyc, x, b, nb)
	h.cycle(l+1, nb, nx)
	lvl.prolong(nxc, nyc, nx, x)
	lvl.rbLineSmooth(b, x, true, false)
}

// rowFactors runs the Thomas forward elimination of every column
// tridiagonal of the grid-order operator op once, in float64, layer by
// layer: the reference for colStencil.factors.
func rowFactors(op *rowOperator) (cpf, minv []float64) {
	n := len(op.diag)
	cpf = make([]float64, n)
	minv = make([]float64, n)
	sz := op.sz
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

// coarsenOperator rediscretizes the row-major op on the
// x/y-aggregated grid: the reference for coarsenColumns.
func coarsenOperator(op *rowOperator, xoff, yoff []int) *rowOperator {
	nxc, nyc, nz := len(xoff)-1, len(yoff)-1, op.nz
	nc := nxc * nyc * nz
	co := &rowOperator{
		nx: nxc, ny: nyc, nz: nz,
		sy: nxc, sz: nxc * nyc,
		gxp:  make([]float64, nc),
		gyp:  make([]float64, nc),
		gzp:  make([]float64, nc),
		diag: make([]float64, nc),
	}
	nf := len(op.diag)
	excess := append([]float64(nil), op.diag...)
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
				for j := yoff[J]; j < yoff[J+1]; j++ {
					for i := xoff[I]; i < xoff[I+1]; i++ {
						c := fidx(i, j, k)
						co.gzp[C] += op.gzp[c]
						if e := excess[c]; e > 0 {
							co.diag[C] += e
						}
					}
				}
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

// rbLineSmooth runs one red-black line Gauss-Seidel sweep on
// lvl·x ≈ b. Each half-sweep relaxes every column of one color exactly
// while reading lateral values only from the opposite color. reverse
// flips the color order (the post-smooth adjoint); fromZero treats x
// as logically zero, letting the first color skip the lateral gather.
func (lvl *rowLevel[F]) rbLineSmooth(b, x []F, reverse, fromZero bool) {
	order := [2]int{0, 1}
	if reverse {
		order = [2]int{1, 0}
	}
	for pass, color := range order {
		gather := !(fromZero && pass == 0)
		lvl.smoothRange(b, x, color, gather, 0, lvl.sz)
	}
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
// top-down, each layer in linear memory order.
func (lvl *rowLevel[F]) smoothRange(b, x []F, color int, gather bool, lo, hi int) {
	nx, sy, sz, nz := lvl.nx, lvl.sy, lvl.sz, lvl.nz
	gxp, gyp, gzp := lvl.gxp, lvl.gyp, lvl.gzp
	minv, dp := lvl.minv, lvl.dp
	row0 := lo - lo%nx
	for k := 0; k < nz; k++ {
		base := k * sz
		for rs := row0; rs < hi; rs += nx {
			j := rs / nx
			i, ie := rowSpan(nx, lo, hi, rs, j, color)
			for ; i < ie; i += 2 {
				c := base + rs + i
				s := b[c]
				if gather {
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
				}
				if c >= sz {
					s += gzp[c-sz] * dp[c-sz]
				}
				dp[c] = s * minv[c]
			}
		}
	}
	lvl.backSubstitute(x, color, lo, hi)
}

// backSubstitute finishes the column solves of smoothRange: top layer
// is dp directly, then x[c] = dp[c] − cpf[c]·x[c+sz] layer by layer
// downward.
func (lvl *rowLevel[F]) backSubstitute(x []F, color, lo, hi int) {
	nx, sz, nz := lvl.nx, lvl.sz, lvl.nz
	cpf, dp := lvl.cpf, lvl.dp
	row0 := lo - lo%nx
	for k := nz - 1; k >= 0; k-- {
		base := k * sz
		for rs := row0; rs < hi; rs += nx {
			j := rs / nx
			i, ie := rowSpan(nx, lo, hi, rs, j, color)
			for ; i < ie; i += 2 {
				c := base + rs + i
				if k == nz-1 {
					x[c] = dp[c]
				} else {
					x[c] = dp[c] - cpf[c]*x[c+sz]
				}
			}
		}
	}
}

// restrictResidual forms the coarse right-hand side rc = R·(b − A·x)
// of an nxc×nyc coarse level in one separate pass. The pre-smooth's
// last half-sweep solved every color-1 column exactly with color-0
// values fixed, so the residual vanishes on color-1 cells and only
// color-0 cells contribute.
func (lvl *rowLevel[F]) restrictResidual(nxc, nyc int, x, b, rc []F) {
	nx, ny, sy, sz := lvl.nx, lvl.ny, lvl.sy, lvl.sz
	gxp, gyp, gzp, diag := lvl.gxp, lvl.gyp, lvl.gzp, lvl.diag
	xoff, yoff := lvl.xoff, lvl.yoff
	for k := 0; k < lvl.nz; k++ {
		for J := 0; J < nyc; J++ {
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
				rc[(k*nyc+J)*nxc+I] = sum
			}
		}
	}
}

// prolong adds the piecewise-constant interpolation of the coarse
// correction: x[c] += xc[aggregate(c)].
func (lvl *rowLevel[F]) prolong(nxc, nyc int, xc, x []F) {
	for k := 0; k < lvl.nz; k++ {
		for j := 0; j < lvl.ny; j++ {
			for i := 0; i < lvl.nx; i++ {
				x[(k*lvl.ny+j)*lvl.nx+i] += xc[(k*nyc+lvl.ymap[j])*nxc+lvl.xmap[i]]
			}
		}
	}
}

// columnsVsRows applies one V-cycle through the production
// (column-major) hierarchy and the row-major reference of the same
// tier, each to the same vector in its own layout, and demands bitwise
// identical output — the pin that makes the column layout a pure
// performance rewrite. Checked at several worker
// counts; apply runs twice so the second call also exercises dirty
// level scratch, and a third pass splits every smoothing level into
// row bands by the worker count whatever its size: the test problems
// are mostly too small for their levels to dispatch, and the banded
// kernels must still be pinned on every shape.
func columnsVsRows[F mgFloat](t *testing.T, op *operator, workers []int) {
	t.Helper()
	n := len(op.diag)
	rng := &eqRNG{s: 0x717ed}
	r := mgRandVec(rng, n)
	rr := op.gridField(r)

	zu := make([]float64, n)
	var ref []float64
	for _, w := range workers {
		kr := testKern(t, w, n)
		cols := newMultigridTier[F](op, kr)
		rows := newRowHierarchy[F](rowsOf(op), kr)
		zt := make([]float64, n)
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				for _, lvl := range cols.levels[:len(cols.levels)-1] {
					lvl.bands = min(w, lvl.ny)
				}
			}
			cols.apply(r, zt)
			rows.apply(rr, zu)
			if !bitIdentical(op.gridField(zt), zu) {
				t.Errorf("workers=%d pass %d: column-major V-cycle differs bitwise from the row-major reference", w, pass)
			}
		}
		if ref == nil {
			ref = zt
		} else if !bitIdentical(ref, zt) {
			t.Errorf("workers=%d: V-cycle differs bitwise from workers=%d", w, workers[0])
		}
		cols.free()
	}
}

// problemColumnsVsRows runs columnsVsRows on p's assembled operator.
func problemColumnsVsRows[F mgFloat](t *testing.T, p *Problem, workers []int) {
	t.Helper()
	columnsVsRows[F](t, assemble(p), workers)
}

// TestMultigridTiledMatchesUntiled pins the production cycle against
// the row-major textbook cycle on the stiff anisotropic stack, in both
// precision tiers.
func TestMultigridTiledMatchesUntiled(t *testing.T) {
	p := anisotropicStackProblem(t)
	workers := []int{1, 2, 3, 8}
	t.Run("f64", func(t *testing.T) { problemColumnsVsRows[float64](t, p, workers) })
	t.Run("f32", func(t *testing.T) { problemColumnsVsRows[float32](t, p, workers) })
}

// TestMultigridTiledDegenerateShapes runs the oracle pin on small
// degenerate plans: single-row and single-column plans, plans with
// fewer coarse rows than workers, odd extents, and a single-column
// stack (the hierarchy is just the coarsest exact solve).
func TestMultigridTiledDegenerateShapes(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{1, 9, 6},
		{9, 1, 6},
		{1, 1, 12},
		{6, 4, 5},
		{16, 3, 4},
		{2, 2, 3},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.nx, s.ny, s.nz), func(t *testing.T) {
			p := shapeProblem(t, s.nx, s.ny, s.nz)
			workers := []int{1, 2, 8}
			t.Run("f64", func(t *testing.T) { problemColumnsVsRows[float64](t, p, workers) })
			t.Run("f32", func(t *testing.T) { problemColumnsVsRows[float32](t, p, workers) })
		})
	}
}

// shapeProblem is a uniform nx×ny×nz block with anisotropic,
// cell-varying conductivity, varying sources and a convective base.
func shapeProblem(t testing.TB, nx, ny, nz int) *Problem {
	t.Helper()
	g, err := mesh.Uniform(1e-4, 1e-4, 1e-5, nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(g)
	for c := 0; c < g.NumCells(); c++ {
		p.SetAniso(c, 4+0.5*float64(c%3), 40)
		p.Q[c] = 1e7 * float64(c%5)
	}
	p.Bounds[ZMin] = ConvectiveBC(1e4, 300)
	return p
}

// equivalenceWorkers is the worker sweep of the column-layout pins.
var equivalenceWorkers = []int{1, 2, 3, 8}

// TestEquivalenceMGColumnsWorkloadShapes pins the column-major cycle
// to the row-major reference on the shapes the benchmark workloads
// solve: the paper flow's 12×12 stacks, the trace's 16×16×74 on its
// transient (C/Δt + A) operator, and the cold-family 32×32×14.
func TestEquivalenceMGColumnsWorkloadShapes(t *testing.T) {
	shapes := []struct {
		name     string
		n, tiers int
		dt       float64
	}{
		{"12x12x74", 12, 24, 0},
		{"16x16x74-transient", 16, 24, 1e-4},
		{"32x32x14", 32, 4, 0},
	}
	for _, s := range shapes {
		op := workloadOperator(t, s.n, s.tiers, s.dt)
		t.Run(s.name, func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { columnsVsRows[float64](t, op, equivalenceWorkers) })
			t.Run("f32", func(t *testing.T) { columnsVsRows[float32](t, op, equivalenceWorkers) })
		})
	}
}

// TestEquivalenceMGColumnsOddShapes pins the column-major cycle on
// odd extents and short stacks, where aggregates of one cell, edge
// columns and one- or two-cell columns meet.
func TestEquivalenceMGColumnsOddShapes(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{3, 5, 4}, {5, 3, 4}, {7, 1, 5}, {1, 7, 5}, {5, 5, 1}, {5, 5, 2},
	}
	for _, s := range shapes {
		p := shapeProblem(t, s.nx, s.ny, s.nz)
		t.Run(fmt.Sprintf("%dx%dx%d", s.nx, s.ny, s.nz), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { problemColumnsVsRows[float64](t, p, equivalenceWorkers) })
			t.Run("f32", func(t *testing.T) { problemColumnsVsRows[float32](t, p, equivalenceWorkers) })
		})
	}
}

// TestEquivalenceMGColumnsGuarded pins the guarded edge kernels on a
// level without the interior fast path: a zero lateral conductivity
// in one cell leaves interior faces of zero coupling, so the level
// must keep every guard.
func TestEquivalenceMGColumnsGuarded(t *testing.T) {
	p := shapeProblem(t, 8, 8, 6)
	p.KX[p.Grid.Index(3, 3, 2)] = 0
	p.KY[p.Grid.Index(3, 3, 2)] = 0
	op := assemble(p)
	mg := newMultigridTier[float64](op, testKern(t, 1, len(op.diag)))
	if mg.levels[0].bare {
		t.Fatal("fine level with zero interior couplings runs guard-free")
	}
	t.Run("f64", func(t *testing.T) { columnsVsRows[float64](t, op, equivalenceWorkers) })
	t.Run("f32", func(t *testing.T) { columnsVsRows[float32](t, op, equivalenceWorkers) })
}

// workloadOperator assembles the 12-tier-style bench stack on an n×n
// grid with the given tier count (nz = 2 + 3·tiers); dt > 0 adds the
// backward-Euler capacitance C/Δt to the diagonal, as the transient
// integrator does.
func workloadOperator(t testing.TB, n, tiers int, dt float64) *operator {
	t.Helper()
	p := tierStack(t, n, tiers)
	op := assemble(p)
	if dt > 0 {
		g := p.Grid
		for k := 0; k < g.NZ(); k++ {
			for j := 0; j < g.NY(); j++ {
				for i := 0; i < g.NX(); i++ {
					op.diag[op.index(i, j, k)] += p.Cv[g.Index(i, j, k)] * g.Volume(i, j, k) / dt
				}
			}
		}
	}
	return op
}
