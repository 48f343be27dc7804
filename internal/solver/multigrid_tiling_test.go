package solver

import (
	"fmt"
	"testing"

	"thermalscaffold/internal/mesh"
)

// The unfused V-cycle: the textbook kernel sequence — pre-smooth,
// residual restriction, coarse solve, prolongation, post-smooth —
// with every kernel a separate full-grid pass. It is the oracle the
// temporally tiled production cycle (multigrid.go) is pinned to,
// bitwise, at every worker count and in both precision tiers.

// referenceApply is multigrid.apply through the unfused cycle. The
// conversions at the fine-level boundary are elementwise, so doing
// them serially here is bitwise identical to apply's chunked ones.
func (mg *multigrid[F]) referenceApply(r, z []float64) {
	rb, zb := make([]F, len(r)), make([]F, len(z))
	for i, v := range r {
		rb[i] = F(v)
	}
	mg.referenceCycle(0, rb, zb)
	for i, v := range zb {
		z[i] = float64(v)
	}
}

// referenceCycle is cycle with every kernel a separate pass.
func (mg *multigrid[F]) referenceCycle(l int, b, x []F) {
	lvl := mg.levels[l]
	if l == len(mg.levels)-1 {
		mg.lineSolve(lvl, b, x)
		return
	}
	next := mg.levels[l+1]
	mg.rbLineSmooth(lvl, b, x, false, true)
	mg.restrictResidual(lvl, next, x, b, next.b)
	mg.referenceCycle(l+1, next.b, next.x)
	mg.prolong(lvl, next, next.x, x)
	mg.rbLineSmooth(lvl, b, x, true, false)
}

// tiledVsUntiled applies one V-cycle through the production (tiled)
// cycle and the reference (unfused) cycle of the same tier-F
// hierarchy and
// demands bitwise identical output — the pin that makes the temporal
// tiling a pure performance rewrite. Checked at several worker counts
// because the tiled down-leg bands its work by worker count, which
// must not leak into the values; apply runs twice so the second call
// also exercises dirty level scratch. A third pass bands every level
// by the worker count whatever its size: the test problems are too
// small for their levels to dispatch, and the banded down-leg (merged
// boundary spans included) must still be pinned on every shape.
func tiledVsUntiled[F mgFloat](t *testing.T, p *Problem, workers []int) {
	t.Helper()
	op := assemble(p)
	n := len(op.b)
	rng := &eqRNG{s: 0x717ed}
	r := mgRandVec(rng, n)

	var ref []float64
	for _, w := range workers {
		kr := testKern(t, w, n)
		tiled := newMultigridTier[F](op, kr)
		plain := newMultigridTier[F](op, kr)
		zt := make([]float64, n)
		zu := make([]float64, n)
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				for _, lvl := range tiled.levels[:len(tiled.levels)-1] {
					lvl.bands, lvl.spans = bandSpans(lvl.yoff, w)
				}
			}
			tiled.apply(r, zt)
			plain.referenceApply(r, zu)
			if !bitIdentical(zt, zu) {
				t.Errorf("workers=%d pass %d: tiled V-cycle differs bitwise from untiled reference", w, pass)
			}
		}
		if ref == nil {
			ref = zt
		} else if !bitIdentical(ref, zt) {
			t.Errorf("workers=%d: tiled V-cycle differs bitwise from workers=%d", w, workers[0])
		}
	}
}

// TestMultigridTiledMatchesUntiled pins the fused sweeps against the
// textbook kernel sequence on the stiff anisotropic stack, in both
// precision tiers.
func TestMultigridTiledMatchesUntiled(t *testing.T) {
	p := anisotropicStackProblem(t)
	workers := []int{1, 2, 3, 8}
	t.Run("f64", func(t *testing.T) { tiledVsUntiled[float64](t, p, workers) })
	t.Run("f32", func(t *testing.T) { tiledVsUntiled[float32](t, p, workers) })
}

// TestMultigridTiledDegenerateShapes runs the tiled-vs-untiled pin on
// the shapes that stress the banded down-leg: single-row and
// single-column plans (nyc == 1 — no banding possible), a plan with
// fewer coarse rows than workers (every band one row wide, merged
// boundary spans), and a single-column stack (the hierarchy is just
// the coarsest exact solve).
func TestMultigridTiledDegenerateShapes(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{1, 9, 6},
		{9, 1, 6},
		{1, 1, 12},
		{6, 4, 5},  // nyc=2 < workers: single-row bands
		{16, 3, 4}, // nyc=2 with odd ny
		{2, 2, 3},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.nx, s.ny, s.nz), func(t *testing.T) {
			g, err := mesh.Uniform(1e-4, 1e-4, 1e-5, s.nx, s.ny, s.nz)
			if err != nil {
				t.Fatal(err)
			}
			p := NewProblem(g)
			for c := 0; c < g.NumCells(); c++ {
				p.SetAniso(c, 4+0.5*float64(c%3), 40)
				p.Q[c] = 1e7 * float64(c%5)
			}
			p.Bounds[ZMin] = ConvectiveBC(1e4, 300)
			workers := []int{1, 2, 8}
			t.Run("f64", func(t *testing.T) { tiledVsUntiled[float64](t, p, workers) })
			t.Run("f32", func(t *testing.T) { tiledVsUntiled[float32](t, p, workers) })
		})
	}
}

// rbLineSmooth runs one red-black line Gauss-Seidel sweep on
// lvl·x ≈ b (the reference smoother). Each half-sweep relaxes
// every column of one color exactly while reading lateral values only
// from the opposite color (fixed during the half-sweep), so column
// ranges chunk across the pool race-free and the result is bitwise
// identical at any worker count. reverse flips the color order (the
// post-smooth adjoint); fromZero treats x as logically zero, letting
// the first color skip the lateral gather and the caller skip zeroing
// stale scratch.
func (mg *multigrid[F]) rbLineSmooth(lvl *mgLevel[F], b, x []F, reverse, fromZero bool) {
	order := [2]int{0, 1}
	if reverse {
		order = [2]int{1, 0}
	}
	for pass, color := range order {
		gather := !(fromZero && pass == 0)
		mg.solveColumns(lvl, b, x, color, gather)
	}
}

// restrictResidual forms the coarse right-hand side rc = R·(b − A·x)
// in one separate pass — the reference for smoothRestrict.
// The pre-smooth's last half-sweep solved every color-1 column
// exactly with color-0 values fixed, so the residual vanishes on
// color-1 cells and only color-0 cells contribute. Each coarse cell
// owns a disjoint fine aggregate visited in fixed nested order, so
// chunking over coarse cells is race-free and worker-count
// independent.
func (mg *multigrid[F]) restrictResidual(fine, coarse *mgLevel[F], x, b, rc []F) {
	nx, ny, sy, sz := fine.nx, fine.ny, fine.sy, fine.sz
	gxp, gyp, gzp, diag := fine.gxp, fine.gyp, fine.gzp, fine.diag
	xoff, yoff := fine.xoff, fine.yoff
	cnx, csz := coarse.nx, coarse.sz
	body := func(s, e int) {
		I := s % cnx
		J := (s % csz) / cnx
		k := s / csz
		for C := s; C < e; C++ {
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
			rc[C] = sum
			I++
			if I == cnx {
				I = 0
				J++
				if J == coarse.ny {
					J = 0
					k++
				}
			}
		}
	}
	if mg.kr.pool.Serial() {
		body(0, len(rc))
		return
	}
	mg.kr.pool.For(len(rc), body)
}

// prolong adds the piecewise-constant interpolation of the coarse
// correction: x[c] += xc[aggregate(c)] — the reference for
// smoothCorrect. Chunked over fine cells; elementwise, so bitwise
// identical at any worker count.
func (mg *multigrid[F]) prolong(fine, coarse *mgLevel[F], xc, x []F) {
	fnx, fny, fsz := fine.nx, fine.ny, fine.sz
	cnx, cny := coarse.nx, coarse.ny
	xmap, ymap := fine.xmap, fine.ymap
	body := func(s, e int) {
		i := s % fnx
		j := (s % fsz) / fnx
		k := s / fsz
		for c := s; c < e; c++ {
			x[c] += xc[(k*cny+ymap[j])*cnx+xmap[i]]
			i++
			if i == fnx {
				i = 0
				j++
				if j == fny {
					j = 0
					k++
				}
			}
		}
	}
	if mg.kr.pool.Serial() {
		body(0, len(x))
		return
	}
	mg.kr.pool.For(len(x), body)
}
