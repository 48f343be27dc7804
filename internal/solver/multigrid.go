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
// # Column layout
//
// Every level stores its arrays in the operator's column order: cell
// (i, j, k) at (j·nx + i)·nz + k, so one z column is nz contiguous
// values. The stacks are tall and narrow (nz in the tens, a few to a
// few dozen cells across), and every kernel of the cycle works a
// column at a time: the Thomas solve runs straight down it with the
// eliminated value in a register, its lateral gather reads four
// neighbour columns as four contiguous streams, and the restriction
// and the folded coarse correction read whole coarse columns. In the
// float64 tier the finest level is the operator itself — its stencil
// arrays, with no copy — and apply runs the cycle straight on PCG's r
// and z.
//
// The cycle sequence is fused where that is exact. The red pre-smooth
// starts from x = 0, so it skips the lateral gather. After the black
// half-sweep relaxes a black column exactly, the residual vanishes on
// it, so restriction evaluates red cells only. In the up-leg the black
// post-smooth overwrites every black cell without reading it, so
// prolonged black values are dead, and the following red half-sweep
// reads only black values: prolonged red values are read exactly once,
// as lateral operands of the black gather, which adds the coarse
// correction x[nb] + xc[aggregate(nb)] on the fly — the same single
// addition a materialized prolongation pass performed — and the pass
// disappears.
//
// Interior columns of a level whose interior faces are all nonzero run
// without the g ≠ 0 and edge guards: a guard only ever skipped a zero
// coupling, so dropping it there moves no bit. Every z-line solve runs
// through one Thomas kernel, four columns at a time so that four
// recurrences overlap: a half-sweep hands it four same-color columns in
// the order it visits them, the ZLine preconditioner and the coarsest
// level four consecutive ones, and a group short of four repeats its
// last column.
//
// The row-major textbook cycle lives in multigrid_tiling_test.go as
// the oracle: the suite pins the production cycle to it bitwise at
// every worker count and in both precision tiers.
//
// # Precision tiers
//
// The hierarchy is generic over the arithmetic type F (float32 or
// float64). Construction — coarsening, Thomas factorization — always
// runs in float64; the per-level coefficient, factor, and scratch
// arrays are then stored in F (the float64 tier keeps the float64
// arrays themselves). The float32 tier halves the bytes every sweep
// moves: it converts the finest stencil once at build, and r in and z
// out per apply. It exists for preconditioning only: the outer PCG
// vectors and every dot-product reduction stay float64, so the f32
// V-cycle only changes how fast the preconditioner approximates A⁻¹,
// not what the solve converges to (the MMS suite pins solution
// accuracy).
//
// Determinism: smoothing, restriction, and the f32 conversions contain
// no floating-point reductions across columns, and every column's
// arithmetic is fixed, so one V-cycle is bitwise identical at every
// worker count (serial included) in both tiers; the solve-level
// contract is then identical to the other preconditioners'.
//
// Dispatch: each level follows internal/parallel's dispatch rule on
// its own column count. A level whose columns split into too few
// chunks to pay for waking the pool's helpers runs every kernel on the
// caller; a level that does splits its rows into one band per worker.
// Typically the fine level of a large grid dispatches and its coarse
// levels do not. Since any partition gives the same bits, the rule
// moves no result.

import (
	"slices"

	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/parallel"
)

// mgFloat constrains a multigrid precision tier's arithmetic type.
type mgFloat interface {
	float32 | float64
}

// toTier converts a float64 array to tier F. For F = float64 the
// original slice is returned unchanged (zero-copy — the f64 tier keeps
// the float64 arrays bit for bit); for float32 each element is rounded
// once, here, never on the hot path.
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
// hot-path array stored in the tier's precision and in column order.
// A line level — the one-level ZLine hierarchy, or multigrid's 1×1
// coarsest — solves its z columns alone.
type mgLevel[F mgFloat] struct {
	nx, ny, nz int
	cols       int // nx·ny, the column count
	// Stencil of this level's operator (see operator): positive face
	// conductances plus the full diagonal. A line level holds gzp
	// alone.
	gxp, gyp, gzp, diag []F
	// Coarsening maps to the next-coarser level (nil on a line level):
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
	// bare records that every interior face of the level — lateral and
	// vertical — is nonzero in tier F, so interior columns run without
	// the g ≠ 0 guards.
	bare bool
	// zero is one column of zeros standing in for the couplings and
	// values of a neighbour outside the grid (smoothing levels only).
	zero []F
	// colGrain is the parallel column-range grain of a line level,
	// rounded up to whole rows; the dispatch rule counts chunks of it
	// on every level.
	colGrain int
	// dispatch records that the level's column regions have enough
	// chunks to wake the pool's helpers (parallel.Pool.Dispatches).
	dispatch bool
	// bands is the number of row bands a dispatched smoothing level's
	// kernels split into, one per worker; 0 or 1 runs each kernel on
	// the caller.
	bands int
	// Scratch: b is the level's right-hand side and x its solution
	// estimate. The finest level of the float64 tier runs on the
	// caller's vectors and has neither.
	b, x []F
}

// multigrid is the assembled hierarchy for one precision tier. The
// finest level's stencil is the operator's (converted once in the
// float32 tier); every coarser level's was drawn for the hierarchy.
type multigrid[F mgFloat] struct {
	levels []*mgLevel[F]
	kr     *kern
}

// columnGrain is the column-range grain of an nx×ny×nz level: about
// parallel.Grain cells, rounded up to whole rows so every chunk is a
// band of rows.
func columnGrain(nx, nz int) int {
	cg := max(parallel.Grain/nz, 1)
	return (cg + nx - 1) / nx * nx
}

// fineStencil views op's arrays as the finest level's stencil.
func fineStencil(op *operator) colStencil {
	return colStencil{nx: op.nx, ny: op.ny, nz: op.nz, gxp: op.gxp, gyp: op.gyp, gzp: op.gzp, diag: op.diag}
}

// newZLineTier builds the ZLine preconditioner for op in tier F: one
// line level on the operator's own arrays, whose apply is the exact
// per-column Thomas solve against the full diagonal.
func newZLineTier[F mgFloat](op *operator, kr *kern) *multigrid[F] {
	cpf, minv := fineStencil(op).factors()
	mg := &multigrid[F]{kr: kr, levels: []*mgLevel[F]{newLineLevel[F](op.nx, op.ny, op.nz, op.gzp, cpf, minv, kr.pool)}}
	mg.scratch()
	return mg
}

// newMultigridTier builds the semi-coarsened hierarchy for op in
// precision tier F: the operator is the finest level, coarsened until
// a single column is left. The construction is a few O(n) float64
// passes — cheap next to a single PCG iteration — and runs serially
// for simplicity and determinism; only the finished per-level arrays
// are stored in F. Every array it draws comes from the free list and
// goes back through free, or at once when tier F holds a converted
// copy.
func newMultigridTier[F mgFloat](op *operator, kr *kern) *multigrid[F] {
	mg := &multigrid[F]{kr: kr}
	_, native := any(op.diag).([]F)
	s := fineStencil(op)
	for s.nx > 1 || s.ny > 1 {
		xoff, yoff := mesh.CoarsenOffsets(s.nx), mesh.CoarsenOffsets(s.ny)
		next := coarsenColumns(s, xoff, yoff)
		lvl := newSmoothLevel[F](s, xoff, yoff, kr.pool)
		// The operator's own stencil comes with its bare flag, the same
		// test on the same arrays; a converted or coarse stencil is
		// scanned in tier F.
		if native && len(mg.levels) == 0 {
			lvl.bare = op.bare
		} else {
			lvl.bare = lvl.interiorNonzero()
		}
		mg.levels = append(mg.levels, lvl)
		if !native && len(mg.levels) > 1 {
			s.free()
		}
		s = next
	}
	// The coarsest level is one column.
	cpf, minv := s.factors()
	mg.levels = append(mg.levels, newLineLevel[F](1, 1, s.nz, s.gzp, cpf, minv, kr.pool))
	if len(mg.levels) > 1 {
		putFloats(s.gxp, s.gyp, s.diag)
		if !native {
			putFloats(s.gzp)
		}
	}
	mg.scratch()
	return mg
}

// scratch draws every level's b and x, except the finest level's in
// the float64 tier, which runs on the caller's vectors.
func (mg *multigrid[F]) scratch() {
	var zero F
	_, native := any(zero).(float64)
	for l, lvl := range mg.levels {
		if l > 0 || !native {
			n := lvl.cols * lvl.nz
			lvl.b, lvl.x = getTierUncleared[F](n), getTierUncleared[F](n)
		}
	}
}

// free hands the hierarchy's arrays back to the free list (at F64;
// the F32 tier's arrays are made, and left to the collector). The
// finest level's stencil belongs to the operator.
func (mg *multigrid[F]) free() {
	for l, lvl := range mg.levels {
		putTier(lvl.cpf, lvl.minv, lvl.b, lvl.x, lvl.zero)
		if l > 0 {
			putTier(lvl.gxp, lvl.gyp, lvl.gzp, lvl.diag)
		}
	}
}

// newLineLevel captures one column tridiagonal set as a tier-F line
// level: gzp and the Thomas factors (which it takes over) converted
// once, column grain fixed.
func newLineLevel[F mgFloat](nx, ny, nz int, gzp, cpf, minv []float64, pool *parallel.Pool) *mgLevel[F] {
	lvl := &mgLevel[F]{
		nx: nx, ny: ny, nz: nz, cols: nx * ny,
		gzp: toTier[F](gzp), cpf: toTier[F](cpf), minv: toTier[F](minv),
		colGrain: columnGrain(nx, nz),
	}
	if _, native := any(cpf).([]F); !native {
		putFloats(cpf, minv)
	}
	lvl.dispatch = pool.Dispatches((lvl.cols + lvl.colGrain - 1) / lvl.colGrain)
	return lvl
}

// newSmoothLevel captures the column-major stencil s as a tier-F
// smoothing level with its coarsening maps and Thomas factors, leaving
// bare to the caller. At F64 the level keeps s's arrays.
func newSmoothLevel[F mgFloat](s colStencil, xoff, yoff []int, pool *parallel.Pool) *mgLevel[F] {
	nx, ny, nz := s.nx, s.ny, s.nz
	lvl := &mgLevel[F]{
		nx: nx, ny: ny, nz: nz, cols: nx * ny,
		gxp: toTier[F](s.gxp), gyp: toTier[F](s.gyp), gzp: toTier[F](s.gzp), diag: toTier[F](s.diag),
		xoff: xoff, yoff: yoff,
		xmap: aggregateMap(xoff, nx), ymap: aggregateMap(yoff, ny),
		zero:     getTier[F](nz),
		colGrain: columnGrain(nx, nz),
	}
	cpf, minv := s.factors()
	lvl.cpf, lvl.minv = toTier[F](cpf), toTier[F](minv)
	if _, native := any(cpf).([]F); !native {
		putFloats(cpf, minv)
	}
	lvl.dispatch = pool.Dispatches((lvl.cols + lvl.colGrain - 1) / lvl.colGrain)
	if lvl.dispatch {
		lvl.bands = min(pool.Workers(), ny)
	}
	return lvl
}

// interiorNonzero reports whether every face between two cells of the
// level has a nonzero coupling in tier F.
func (lvl *mgLevel[F]) interiorNonzero() bool {
	nx, ny, nz := lvl.nx, lvl.ny, lvl.nz
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := (j*nx + i) * nz
			if (i+1 < nx && slices.Contains(lvl.gxp[c:c+nz], 0)) ||
				(j+1 < ny && slices.Contains(lvl.gyp[c:c+nz], 0)) ||
				slices.Contains(lvl.gzp[c:c+nz-1], 0) {
				return false
			}
		}
	}
	return true
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

// colStencil is one level's stencil in float64 and column-major order
// while the hierarchy is built.
type colStencil struct {
	nx, ny, nz          int
	gxp, gyp, gzp, diag []float64
}

// newColStencil draws a cleared stencil: coarsenColumns accumulates
// into every array.
func newColStencil(nx, ny, nz int) colStencil {
	n := nx * ny * nz
	return colStencil{nx: nx, ny: ny, nz: nz,
		gxp: getFloats(n), gyp: getFloats(n), gzp: getFloats(n), diag: getFloats(n)}
}

func (s colStencil) free() { putFloats(s.gxp, s.gyp, s.gzp, s.diag) }

// toColumns writes the grid-order nx×ny×nz field src into dst in
// column order. Each row's block of nx columns is contiguous in dst;
// src is read four x rows (four layers) at a time, so every column
// receives four consecutive values per visit.
func toColumns(dst, src []float64, nx, ny, nz int) {
	sz := nx * ny
	for j := 0; j < ny; j++ {
		blk := dst[j*nx*nz : (j+1)*nx*nz]
		k := 0
		for ; k+4 <= nz; k += 4 {
			o := k*sz + j*nx
			r0 := src[o : o+nx]
			r1 := src[o+sz : o+sz+nx][:len(r0)]
			r2 := src[o+2*sz : o+2*sz+nx][:len(r0)]
			r3 := src[o+3*sz : o+3*sz+nx][:len(r0)]
			for i := range r0 {
				c := blk[i*nz+k : i*nz+k+4]
				c[0], c[1], c[2], c[3] = r0[i], r1[i], r2[i], r3[i]
			}
		}
		for ; k < nz; k++ {
			row := src[k*sz+j*nx : k*sz+j*nx+nx]
			for i, v := range row {
				blk[i*nz+k] = v
			}
		}
	}
}

// fromColumns is the inverse of toColumns.
func fromColumns(dst, src []float64, nx, ny, nz int) {
	sz := nx * ny
	for j := 0; j < ny; j++ {
		blk := src[j*nx*nz : (j+1)*nx*nz]
		k := 0
		for ; k+4 <= nz; k += 4 {
			o := k*sz + j*nx
			r0 := dst[o : o+nx]
			r1 := dst[o+sz : o+sz+nx][:len(r0)]
			r2 := dst[o+2*sz : o+2*sz+nx][:len(r0)]
			r3 := dst[o+3*sz : o+3*sz+nx][:len(r0)]
			for i := range r0 {
				c := blk[i*nz+k : i*nz+k+4]
				r0[i], r1[i], r2[i], r3[i] = c[0], c[1], c[2], c[3]
			}
		}
		for ; k < nz; k++ {
			row := dst[k*sz+j*nx : k*sz+j*nx+nx]
			for i := range row {
				row[i] = blk[i*nz+k]
			}
		}
	}
}

// factors runs the Thomas forward elimination of every column of s
// once, in float64, returning the per-cell eliminated super-diagonal
// (cpf) and reciprocal pivot (minv). It runs layer by layer across the
// columns: within a column each pivot waits on the two divisions below
// it, while the cells of a layer are independent. gzp is zero on the
// top layer, so cpf there is zero and never read by the back
// substitution.
func (s colStencil) factors() (cpf, minv []float64) {
	n, nz := len(s.diag), s.nz
	cpf = getUncleared(n)
	minv = getUncleared(n)
	for c := 0; c < n; c += nz {
		m := s.diag[c]
		minv[c] = 1 / m
		cpf[c] = -s.gzp[c] / m
	}
	for k := 1; k < nz; k++ {
		for c := k; c < n; c += nz {
			m := s.diag[c] + s.gzp[c-1]*cpf[c-1]
			minv[c] = 1 / m
			cpf[c] = -s.gzp[c] / m
		}
	}
	return cpf, minv
}

// coarsenColumns rediscretizes s on the x/y-aggregated grid, both in
// column-major order. Every coarse value is the expression the
// row-major rediscretization evaluates, in its order: the excess and
// diagonal sums meet each cell's faces in the order a row-major sweep
// over the cells meets them — below, south, west, then the cell's own
// east, north and up faces.
func coarsenColumns(s colStencil, xoff, yoff []int) colStencil {
	nx, nz := s.nx, s.nz
	nxc, nyc := len(xoff)-1, len(yoff)-1
	co := newColStencil(nxc, nyc, nz)
	sy := nx * nz
	zero := getFloats(nz)
	// hx and hy hold interior half resistances between the two coarse
	// faces that read them, for every fine row and column.
	half := getUncleared((nx + s.ny) * nz)
	defer putFloats(zero, half)
	hx, hy := half[:s.ny*nz], half[s.ny*nz:]
	for J := 0; J < nyc; J++ {
		for I := 0; I < nxc; I++ {
			C := (J*nxc + I) * nz
			gz, dg := co.gzp[C:C+nz], co.diag[C:C+nz]
			// Parallel sums over the aggregate, visited in j, i order:
			// vertical coupling and excess (coarse faces/boundaries are
			// unions of fine ones). A fine cell's "excess" is the
			// diagonal mass that is not face coupling — boundary
			// conductance and (for the transient operator) the
			// capacitance term. Every face is subtracted unguarded: a
			// face outside the grid is a zero coupling (the zero column
			// west or south, the stored 0 east, north and on top), and
			// e − (+0) = e for every e, so dropping the guards of the
			// row-major loop moves no bit.
			for j := yoff[J]; j < yoff[J+1]; j++ {
				for i := xoff[I]; i < xoff[I+1]; i++ {
					c := (j*nx + i) * nz
					fd, fz := s.diag[c : c+nz][:len(gz)], s.gzp[c : c+nz][:len(gz)]
					ge, gn := s.gxp[c : c+nz][:len(gz)], s.gyp[c : c+nz][:len(gz)]
					// The west and south faces are stored with the
					// neighbour.
					gw, gs := zero[:len(gz)], zero[:len(gz)]
					if i > 0 {
						gw = s.gxp[c-nz : c][:len(gz)]
					}
					if j > 0 {
						gs = s.gyp[c-sy : c-sy+nz][:len(gz)]
					}
					below := 0.0
					for k := range gz {
						gz[k] += fz[k]
						e := fd[k] - below
						e -= gs[k]
						e -= gw[k]
						e -= ge[k]
						e -= gn[k]
						below = fz[k]
						if e -= below; e > 0 { // clamp rounding noise
							dg[k] += e
						}
					}
				}
			}
			// Coarse x face to aggregate I+1: per fine row, series-
			// combine (harmonic mean) the half-cell interior faces with
			// the interface face, then sum the rows in parallel. An
			// aggregate's interior face serves the coarse faces on both
			// of its sides, so its half resistance 1/(2g) is computed
			// for the first and kept in hx (per fine row) for the
			// second.
			if I+1 < nxc {
				iL := xoff[I+1] - 1
				gx := co.gxp[C : C+nz]
				for j := yoff[J]; j < yoff[J+1]; j++ {
					c := (j*nx + iL) * nz
					h := hx[j*nz : j*nz+nz][:len(gx)]
					for k := range gx {
						r := 1 / s.gxp[c+k]
						if xoff[I+1]-xoff[I] == 2 {
							if I == 0 {
								h[k] = 1 / (2 * s.gxp[c+k-nz])
							}
							r += h[k]
						}
						if xoff[I+2]-xoff[I+1] == 2 {
							h[k] = 1 / (2 * s.gxp[c+k+nz])
							r += h[k]
						}
						gx[k] += 1 / r
					}
				}
			}
			// Coarse y face, symmetric; hy keeps the half resistances
			// per fine column.
			if J+1 < nyc {
				jL := yoff[J+1] - 1
				gy := co.gyp[C : C+nz]
				for i := xoff[I]; i < xoff[I+1]; i++ {
					c := (jL*nx + i) * nz
					h := hy[i*nz : i*nz+nz][:len(gy)]
					for k := range gy {
						r := 1 / s.gyp[c+k]
						if yoff[J+1]-yoff[J] == 2 {
							if J == 0 {
								h[k] = 1 / (2 * s.gyp[c+k-sy])
							}
							r += h[k]
						}
						if yoff[J+2]-yoff[J+1] == 2 {
							h[k] = 1 / (2 * s.gyp[c+k+sy])
							r += h[k]
						}
						gy[k] += 1 / r
					}
				}
			}
		}
	}
	// Accumulate couplings into the diagonal (excess is already there).
	syc := nxc * nz
	for J := 0; J < nyc; J++ {
		for I := 0; I < nxc; I++ {
			C0 := (J*nxc + I) * nz
			for k := 0; k < nz; k++ {
				C := C0 + k
				d := co.diag[C]
				if k > 0 {
					if g := co.gzp[C-1]; g != 0 {
						d += g
					}
				}
				if J > 0 {
					if g := co.gyp[C-syc]; g != 0 {
						d += g
					}
				}
				if I > 0 {
					if g := co.gxp[C-nz]; g != 0 {
						d += g
					}
				}
				if g := co.gxp[C]; g != 0 {
					d += g
				}
				if g := co.gyp[C]; g != 0 {
					d += g
				}
				if g := co.gzp[C]; g != 0 {
					d += g
				}
				co.diag[C] = d
			}
		}
	}
	return co
}

// apply is the preconditioner action z ← B·r (one V-cycle, or the
// line solve of the one-level ZLine hierarchy). The float64 tier runs
// straight on r and z; the float32 tier converts r into its finest
// level and the result back out, elementwise and so as deterministic
// as the cycle itself.
func (mg *multigrid[F]) apply(r, z []float64) {
	if rf, ok := any(r).([]F); ok {
		mg.cycle(0, rf, any(z).([]F))
		return
	}
	top := mg.levels[0]
	b, x := top.b, top.x
	pool := mg.kr.pool
	if !pool.Dispatches(parallel.NumChunks(len(r))) {
		convert(b, r)
		mg.cycle(0, b, x)
		convert(z, x)
		return
	}
	pool.For(len(r), func(s, e int) { convert(b[s:e], r[s:e]) })
	mg.cycle(0, b, x)
	pool.For(len(z), func(s, e int) { convert(z[s:e], x[s:e]) })
}

// convert writes src into dst, rounding each value to D.
func convert[D, S mgFloat](dst []D, src []S) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = D(v)
	}
}

// The three kinds of half-sweep a cycle runs.
const (
	sweepFromZero = iota // right-hand side b alone: x is logically zero
	sweepGather          // b plus the coupling to the other color's x
	sweepCorrect         // as sweepGather, each lateral operand corrected by the coarse level
)

// cycle runs one V(1,1) cycle solving lvl·x ≈ b with x entered as
// scratch (fully overwritten by the pre-smooth, so no zeroing pass is
// needed).
func (mg *multigrid[F]) cycle(l int, b, x []F) {
	lvl := mg.levels[l]
	if l == len(mg.levels)-1 {
		// Coarsest level: a single z column — solve exactly with one
		// Thomas elimination (the operator is purely tridiagonal once
		// nx = ny = 1).
		mg.lineSolve(lvl, b, x)
		return
	}
	next := mg.levels[l+1]
	// Down-leg: red half-sweep from zero, black half-sweep, then the
	// restriction of the red-only residual.
	mg.smooth(lvl, sweepFromZero, 0, b, x, nil)
	mg.smooth(lvl, sweepGather, 1, b, x, nil)
	mg.restrict(lvl, b, x, next.b)
	mg.cycle(l+1, next.b, next.x)
	// Up-leg: the prolongation is folded into the black post-smooth's
	// gather; the red half-sweep then reads only final black values.
	// Colors reversed relative to the pre-smooth — each half-sweep is
	// an exact block solve and therefore A-self-adjoint, so black∘red
	// is the A-adjoint of red∘black and the V-cycle stays symmetric.
	mg.smooth(lvl, sweepCorrect, 1, b, x, next.x)
	mg.smooth(lvl, sweepGather, 0, b, x, nil)
}

// smooth relaxes the columns of one color exactly, one row band per
// worker when the level dispatches. Columns are independent
// tridiagonal solves writing disjoint cells, so any partition produces
// bit-identical results.
func (mg *multigrid[F]) smooth(lvl *mgLevel[F], kind, color int, b, x, xc []F) {
	if lvl.bands <= 1 {
		lvl.smoothRows(kind, color, b, x, xc, 0, lvl.ny)
		return
	}
	mg.kr.pool.RunBands(lvl.bands, func(_, w int) {
		j0, j1 := parallel.Partition(lvl.ny, lvl.bands, w)
		lvl.smoothRows(kind, color, b, x, xc, j0, j1)
	})
}

// restrict writes the coarse right-hand side rc = R·(b − A·x), one
// band of coarse rows per worker when the level dispatches. Every
// coarse column owns a disjoint aggregate, so any partition gives the
// same bits.
func (mg *multigrid[F]) restrict(lvl *mgLevel[F], b, x, rc []F) {
	nyc := len(lvl.yoff) - 1
	if lvl.bands <= 1 {
		lvl.restrictRows(b, x, rc, 0, nyc)
		return
	}
	bands := min(lvl.bands, nyc)
	mg.kr.pool.RunBands(bands, func(_, w int) {
		J0, J1 := parallel.Partition(nyc, bands, w)
		lvl.restrictRows(b, x, rc, J0, J1)
	})
}

// smoothRows relaxes the color-matching columns of rows [j0, j1): each
// column's right-hand side is gathered into its own x (the column's
// old values are dead: a half-sweep never reads the color it writes),
// then solved in place, four columns at a time in the order the rows
// are visited; the last group repeats its last column. A sweep from
// zero solves straight from b.
func (lvl *mgLevel[F]) smoothRows(kind, color int, b, x, xc []F, j0, j1 int) {
	nx, nz := lvl.nx, lvl.nz
	src := x
	if kind == sweepFromZero {
		src = b
	}
	var held [4]int // gathered columns waiting for their solve
	m := 0
	for j := j0; j < j1; j++ {
		for i := (j + color) & 1; i < nx; i += 2 {
			switch kind {
			case sweepGather:
				lvl.gather(b, x, nil, i, j)
			case sweepCorrect:
				lvl.gather(b, x, xc, i, j)
			}
			held[m] = (j*nx + i) * nz
			if m++; m == len(held) {
				lvl.thomas(src, x, held[0], held[1], held[2], held[3])
				m = 0
			}
		}
	}
	if m > 0 {
		for h := m; h < len(held); h++ {
			held[h] = held[m-1]
		}
		lvl.thomas(src, x, held[0], held[1], held[2], held[3])
	}
}

// interior reports whether column (i, j) has all four lateral
// neighbours.
func (lvl *mgLevel[F]) interior(i, j int) bool {
	return i > 0 && i+1 < lvl.nx && j > 0 && j+1 < lvl.ny
}

// around returns the columns of v east, west, north and south of
// column (i, j), in the gather's order, with the zero column standing
// in for a neighbour outside the grid.
func (lvl *mgLevel[F]) around(v []F, i, j int) (e, w, n, s []F) {
	nx, ny, nz := lvl.nx, lvl.ny, lvl.nz
	c := (j*nx + i) * nz
	e, w, n, s = lvl.zero, lvl.zero, lvl.zero, lvl.zero
	if i+1 < nx {
		e = v[c+nz : c+2*nz]
	}
	if i > 0 {
		w = v[c-nz : c]
	}
	if j+1 < ny {
		n = v[c+nx*nz : c+nx*nz+nz]
	}
	if j > 0 {
		s = v[c-nx*nz : c-nx*nz+nz]
	}
	return e, w, n, s
}

// couplings returns the conductances of column (i, j)'s east, west,
// north and south faces, with the zero column for a face on the
// domain edge (where the coupling is zero anyway).
func (lvl *mgLevel[F]) couplings(i, j int) (e, w, n, s []F) {
	nx, ny, nz := lvl.nx, lvl.ny, lvl.nz
	c := (j*nx + i) * nz
	e, w, n, s = lvl.zero, lvl.zero, lvl.zero, lvl.zero
	if i+1 < nx {
		e = lvl.gxp[c : c+nz]
	}
	if i > 0 {
		w = lvl.gxp[c-nz : c]
	}
	if j+1 < ny {
		n = lvl.gyp[c : c+nz]
	}
	if j > 0 {
		s = lvl.gyp[c-nx*nz : c-nx*nz+nz]
	}
	return e, w, n, s
}

// coarseAround returns the coarse columns of xc under the aggregates
// of column (i, j)'s east, west, north and south neighbours.
func (lvl *mgLevel[F]) coarseAround(xc []F, i, j int) (e, w, n, s []F) {
	nx, ny, nz := lvl.nx, lvl.ny, lvl.nz
	nxc := len(lvl.xoff) - 1
	col := func(I, J int) []F {
		C := (J*nxc + I) * nz
		return xc[C : C+nz]
	}
	e, w, n, s = lvl.zero, lvl.zero, lvl.zero, lvl.zero
	if i+1 < nx {
		e = col(lvl.xmap[i+1], lvl.ymap[j])
	}
	if i > 0 {
		w = col(lvl.xmap[i-1], lvl.ymap[j])
	}
	if j+1 < ny {
		n = col(lvl.xmap[i], lvl.ymap[j+1])
	}
	if j > 0 {
		s = col(lvl.xmap[i], lvl.ymap[j-1])
	}
	return e, w, n, s
}

// gather writes column (i, j)'s smoothing right-hand side into its own
// x: b plus the coupling to the four lateral neighbours, in east,
// west, north, south order. With xc non-nil each neighbour value is
// first corrected by the coarse solution under its aggregate. An
// interior column of a bare level skips the guards, which only ever
// skipped a zero coupling.
func (lvl *mgLevel[F]) gather(b, x, xc []F, i, j int) {
	nz := lvl.nz
	c := (j*lvl.nx + i) * nz
	out := x[c : c+nz]
	bc := b[c : c+nz][:len(out)]
	ge, gw, gn, gs := lvl.couplings(i, j)
	ge, gw, gn, gs = ge[:len(out)], gw[:len(out)], gn[:len(out)], gs[:len(out)]
	xe, xw, xn, xs := lvl.around(x, i, j)
	xe, xw, xn, xs = xe[:len(out)], xw[:len(out)], xn[:len(out)], xs[:len(out)]
	bare := lvl.bare && lvl.interior(i, j)
	if xc != nil {
		ce, cw, cn, cs := lvl.coarseAround(xc, i, j)
		ce, cw, cn, cs = ce[:len(out)], cw[:len(out)], cn[:len(out)], cs[:len(out)]
		if bare {
			for k := range out {
				s := bc[k] + ge[k]*(xe[k]+ce[k])
				s += gw[k] * (xw[k] + cw[k])
				s += gn[k] * (xn[k] + cn[k])
				s += gs[k] * (xs[k] + cs[k])
				out[k] = s
			}
			return
		}
		for k := range out {
			s := bc[k]
			if g := ge[k]; g != 0 {
				s += g * (xe[k] + ce[k])
			}
			if g := gw[k]; g != 0 {
				s += g * (xw[k] + cw[k])
			}
			if g := gn[k]; g != 0 {
				s += g * (xn[k] + cn[k])
			}
			if g := gs[k]; g != 0 {
				s += g * (xs[k] + cs[k])
			}
			out[k] = s
		}
		return
	}
	if bare {
		for k := range out {
			s := bc[k] + ge[k]*xe[k]
			s += gw[k] * xw[k]
			s += gn[k] * xn[k]
			s += gs[k] * xs[k]
			out[k] = s
		}
		return
	}
	for k := range out {
		s := bc[k]
		if g := ge[k]; g != 0 {
			s += g * xe[k]
		}
		if g := gw[k]; g != 0 {
			s += g * xw[k]
		}
		if g := gn[k]; g != 0 {
			s += g * xn[k]
		}
		if g := gs[k]; g != 0 {
			s += g * xs[k]
		}
		out[k] = s
	}
}

// thomas solves the z tridiagonals of the four columns starting at c0,
// c1, c2 and c3 against right-hand sides src, writing dst: forward
// elimination up each column, dp = (rhs + gzp·dp_below)·minv, then
// back substitution down it, x = dp − cpf·x_above. Four independent
// recurrences per loop overlap their latencies. src may be dst, and an
// offset may repeat: each step reads all four columns before it writes
// any, so a repeated column is solved again with the same arithmetic
// and written with the same values.
func (lvl *mgLevel[F]) thomas(src, dst []F, c0, c1, c2, c3 int) {
	nz := lvl.nz
	x0 := dst[c0 : c0+nz]
	x1, x2, x3 := dst[c1 : c1+nz][:len(x0)], dst[c2 : c2+nz][:len(x0)], dst[c3 : c3+nz][:len(x0)]
	s0, s1 := src[c0 : c0+nz][:len(x0)], src[c1 : c1+nz][:len(x0)]
	s2, s3 := src[c2 : c2+nz][:len(x0)], src[c3 : c3+nz][:len(x0)]
	g0, g1 := lvl.gzp[c0 : c0+nz][:len(x0)], lvl.gzp[c1 : c1+nz][:len(x0)]
	g2, g3 := lvl.gzp[c2 : c2+nz][:len(x0)], lvl.gzp[c3 : c3+nz][:len(x0)]
	m0, m1 := lvl.minv[c0 : c0+nz][:len(x0)], lvl.minv[c1 : c1+nz][:len(x0)]
	m2, m3 := lvl.minv[c2 : c2+nz][:len(x0)], lvl.minv[c3 : c3+nz][:len(x0)]
	p0, p1, p2, p3 := s0[0]*m0[0], s1[0]*m1[0], s2[0]*m2[0], s3[0]*m3[0]
	x0[0], x1[0], x2[0], x3[0] = p0, p1, p2, p3
	for k := 1; k < len(x0); k++ {
		p0 = (s0[k] + g0[k-1]*p0) * m0[k]
		p1 = (s1[k] + g1[k-1]*p1) * m1[k]
		p2 = (s2[k] + g2[k-1]*p2) * m2[k]
		p3 = (s3[k] + g3[k-1]*p3) * m3[k]
		x0[k], x1[k], x2[k], x3[k] = p0, p1, p2, p3
	}
	f0, f1 := lvl.cpf[c0 : c0+nz][:len(x0)], lvl.cpf[c1 : c1+nz][:len(x0)]
	f2, f3 := lvl.cpf[c2 : c2+nz][:len(x0)], lvl.cpf[c3 : c3+nz][:len(x0)]
	for k := len(x0) - 2; k >= 0; k-- {
		p0 = x0[k] - f0[k]*p0
		p1 = x1[k] - f1[k]*p1
		p2 = x2[k] - f2[k]*p2
		p3 = x3[k] - f3[k]*p3
		x0[k], x1[k], x2[k], x3[k] = p0, p1, p2, p3
	}
}

// restrictRows writes coarse rows [J0, J1) of rc = R·(b − A·x). The
// pre-smooth's black half-sweep solved every black column exactly
// with red values fixed, so the residual vanishes on black cells and
// only red cells contribute — the kernel evaluates the 7-point
// residual on half the cells and never materializes the residual
// vector. Each coarse cell sums its aggregate's red cells in nested
// j, i order from zero.
func (lvl *mgLevel[F]) restrictRows(b, x, rc []F, J0, J1 int) {
	nz := lvl.nz
	xoff, yoff := lvl.xoff, lvl.yoff
	nxc := len(xoff) - 1
	for J := J0; J < J1; J++ {
		for I := 0; I < nxc; I++ {
			C := (J*nxc + I) * nz
			out := rc[C : C+nz]
			clear(out)
			for j := yoff[J]; j < yoff[J+1]; j++ {
				for i := xoff[I]; i < xoff[I+1]; i++ {
					if (i+j)&1 == 0 {
						lvl.addResidual(b, x, out, i, j)
					}
				}
			}
		}
	}
}

// addResidual adds the residual b − A·x of column (i, j) to out, term
// by term in the order of operator.applyRange: diagonal, east, west,
// north, south, up, down. An interior column of a bare level skips
// the guards.
func (lvl *mgLevel[F]) addResidual(b, x, out []F, i, j int) {
	nz := lvl.nz
	c := (j*lvl.nx + i) * nz
	xc := x[c : c+nz]
	out = out[:len(xc)]
	bc, dc := b[c : c+nz][:len(xc)], lvl.diag[c : c+nz][:len(xc)]
	gz := lvl.gzp[c : c+nz][:len(xc)]
	ge, gw, gn, gs := lvl.couplings(i, j)
	ge, gw, gn, gs = ge[:len(xc)], gw[:len(xc)], gn[:len(xc)], gs[:len(xc)]
	xe, xw, xn, xs := lvl.around(x, i, j)
	xe, xw, xn, xs = xe[:len(xc)], xw[:len(xc)], xn[:len(xc)], xs[:len(xc)]
	if lvl.bare && lvl.interior(i, j) {
		for k := range xc {
			r := bc[k] - dc[k]*xc[k]
			r += ge[k] * xe[k]
			r += gw[k] * xw[k]
			r += gn[k] * xn[k]
			r += gs[k] * xs[k]
			if k+1 < len(xc) {
				r += gz[k] * xc[k+1]
			}
			if k > 0 {
				r += gz[k-1] * xc[k-1]
			}
			out[k] += r
		}
		return
	}
	for k := range xc {
		r := bc[k] - dc[k]*xc[k]
		if g := ge[k]; g != 0 {
			r += g * xe[k]
		}
		if g := gw[k]; g != 0 {
			r += g * xw[k]
		}
		if g := gn[k]; g != 0 {
			r += g * xn[k]
		}
		if g := gs[k]; g != 0 {
			r += g * xs[k]
		}
		if k+1 < len(xc) {
			if g := gz[k]; g != 0 {
				r += g * xc[k+1]
			}
		}
		if k > 0 {
			if g := gz[k-1]; g != 0 {
				r += g * xc[k-1]
			}
		}
		out[k] += r
	}
}

// lineSolve solves the z-line system of every column exactly: the
// ZLine preconditioner, and on the coarsest (1×1-column) level the
// exact solve of the whole level. Columns write disjoint entries, so
// any partition of the column range gives the same bits at any
// worker count.
func (mg *multigrid[F]) lineSolve(lvl *mgLevel[F], r, z []F) {
	if !lvl.dispatch {
		lvl.lineColumns(r, z, 0, lvl.cols)
		return
	}
	mg.kr.pool.ForGrain(lvl.cols, lvl.colGrain, func(_, s, e int) {
		lvl.lineColumns(r, z, s, e)
	})
}

// lineColumns solves columns [lo, hi) of a line level, four
// consecutive ones at a time; the last group repeats the range's last
// column. Every cell evaluates the per-column recurrence's own
// expressions and columns never couple, so the result is bitwise
// identical to solving the columns one by one
// (TestEquivalenceZLinePlanes).
func (lvl *mgLevel[F]) lineColumns(r, z []F, lo, hi int) {
	nz, last := lvl.nz, hi-1
	for c := lo; c < hi; c += 4 {
		lvl.thomas(r, z, c*nz, min(c+1, last)*nz, min(c+2, last)*nz, min(c+3, last)*nz)
	}
}
