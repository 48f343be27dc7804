// Package solver implements a 3-D anisotropic finite-volume heat
// conduction solver — the reproduction's substitute for the PACT,
// COMSOL, and Celsius simulations used by the paper.
//
// It solves ∇·(K ∇T) + q = 0 (steady) or ρc ∂T/∂t = ∇·(K ∇T) + q
// (transient, backward Euler) on a rectilinear grid with a diagonal
// conductivity tensor per cell, volumetric heat sources, and
// adiabatic, fixed-temperature (Dirichlet), or convective (Robin,
// h·(T−T∞)) boundary conditions per face. Face conductances use the
// standard harmonic (series-resistance) mean, so layered stacks with
// conductivity contrasts of 10³ (ultra-low-k ILD against copper
// pillars) are handled exactly as a resistor network would be.
//
// The steady solver is a matrix-free preconditioned conjugate
// gradient (the operator is symmetric positive definite by
// construction) with multigrid (the default) or z-line
// preconditioning.
// Every solve — steady, batch, trace, transient — runs on a family
// entry of an Engine (see family.go).
package solver

import (
	"errors"
	"fmt"
	"math"

	"thermalscaffold/internal/mesh"
)

// BCKind enumerates the supported boundary condition types.
type BCKind int

const (
	// Adiabatic (zero flux) — the default for chip side walls.
	Adiabatic BCKind = iota
	// Dirichlet fixes the boundary temperature.
	Dirichlet
	// Convective applies a heat transfer coefficient h to an ambient
	// temperature T∞ — the heatsink model.
	Convective
)

func (k BCKind) String() string {
	switch k {
	case Adiabatic:
		return "adiabatic"
	case Dirichlet:
		return "dirichlet"
	case Convective:
		return "convective"
	default:
		return fmt.Sprintf("BCKind(%d)", int(k))
	}
}

// Face identifies one of the six grid boundary faces.
type Face int

const (
	XMin Face = iota
	XMax
	YMin
	YMax
	ZMin
	ZMax
	numFaces
)

func (f Face) String() string {
	switch f {
	case XMin:
		return "x-"
	case XMax:
		return "x+"
	case YMin:
		return "y-"
	case YMax:
		return "y+"
	case ZMin:
		return "z-"
	case ZMax:
		return "z+"
	default:
		return fmt.Sprintf("Face(%d)", int(f))
	}
}

// Boundary describes the condition applied to one grid face.
type Boundary struct {
	Kind BCKind
	T    float64 // fixed temperature (Dirichlet) or ambient (Convective), K
	H    float64 // heat transfer coefficient, W/m²/K (Convective only)
}

// AdiabaticBC returns a zero-flux boundary.
func AdiabaticBC() Boundary { return Boundary{Kind: Adiabatic} }

// DirichletBC returns a fixed-temperature boundary.
func DirichletBC(t float64) Boundary { return Boundary{Kind: Dirichlet, T: t} }

// ConvectiveBC returns a Robin boundary with coefficient h (W/m²/K)
// against ambient temperature t (K).
func ConvectiveBC(h, t float64) Boundary { return Boundary{Kind: Convective, H: h, T: t} }

// Problem is a fully specified conduction problem. KX/KY/KZ give the
// per-cell conductivity along each axis (W/m/K); Q the volumetric
// heat source (W/m³); Cv the volumetric heat capacity (J/m³/K, only
// needed for transient solves).
type Problem struct {
	Grid   *mesh.Grid
	KX     []float64
	KY     []float64
	KZ     []float64
	Q      []float64
	Cv     []float64
	Bounds [6]Boundary
	// ZPlaneTBR, when non-nil, adds a thermal boundary resistance
	// (m²K/W) in series at each z interface: entry k applies between
	// cell layers k and k+1 (len NZ−1). Used for bonding/material
	// interfaces between 3D tiers; [34] finds CMOS interface
	// conductance ~10⁹ W/m²/K (TBR 1e-9), i.e. negligible.
	ZPlaneTBR []float64
}

// NewProblem allocates a problem over g with all-zero sources,
// unit conductivity, and all-adiabatic boundaries. Its per-cell
// arrays come from the package's free list (see freelist.go).
func NewProblem(g *mesh.Grid) *Problem {
	n := g.NumCells()
	p := &Problem{
		Grid: g,
		KX:   getUncleared(n),
		KY:   getUncleared(n),
		KZ:   getUncleared(n),
		Q:    getFloats(n),
		Cv:   getFloats(n),
	}
	for i := range p.KX {
		p.KX[i], p.KY[i], p.KZ[i] = 1, 1, 1
	}
	return p
}

// Release hands the problem's per-cell arrays (KX, KY, KZ, Q, Cv) back
// to the free list, for later problems and solves of the same size,
// and clears them from p. Only the problem's sole owner may call it,
// once nothing reads those arrays any more — stack.Spec.Solve does,
// for the problem it builds and never hands out. No solve keeps a
// reference to its problem's arrays.
func (p *Problem) Release() {
	putFloats(p.KX, p.KY, p.KZ, p.Q, p.Cv)
	p.KX, p.KY, p.KZ, p.Q, p.Cv = nil, nil, nil, nil, nil
}

// CloneBlankSources returns a shallow copy of the problem sharing the
// grid, conductivity, heat-capacity, boundary, and interface-resistance
// arrays, with a freshly allocated zero source field. The copy is how
// a cached family geometry is re-targeted at a new power map without
// rebuilding: the shared arrays must be treated as immutable by both
// sides (the same contract the engine's assembly cache relies on).
func (p *Problem) CloneBlankSources() *Problem {
	q := *p
	q.Q = make([]float64, len(p.Q))
	return &q
}

// SetIsotropic sets all three conductivities of cell idx.
func (p *Problem) SetIsotropic(idx int, k float64) {
	p.KX[idx], p.KY[idx], p.KZ[idx] = k, k, k
}

// SetAniso sets in-plane (x=y) and through-plane (z) conductivities
// of cell idx.
func (p *Problem) SetAniso(idx int, kLat, kVert float64) {
	p.KX[idx], p.KY[idx] = kLat, kLat
	p.KZ[idx] = kVert
}

// Validate checks array sizes, positivity of conductivities, and that
// at least one boundary can remove heat when sources are present.
func (p *Problem) Validate() error {
	if p.Grid == nil {
		return errors.New("solver: nil grid")
	}
	n := p.Grid.NumCells()
	for _, a := range []struct {
		name string
		v    []float64
	}{{"KX", p.KX}, {"KY", p.KY}, {"KZ", p.KZ}, {"Q", p.Q}} {
		if len(a.v) != n {
			return fmt.Errorf("solver: %s has %d entries, want %d", a.name, len(a.v), n)
		}
	}
	// badK rejects non-positive, NaN, and Inf conductivity: !(k > 0)
	// is true for NaN too, which a plain k <= 0 test would let through.
	badK := func(k float64) bool { return !(k > 0) || math.IsInf(k, 1) }
	for c := 0; c < n; c++ {
		if badK(p.KX[c]) {
			return fmt.Errorf("solver: KX has invalid conductivity at cell %d (%g)", c, p.KX[c])
		}
		if badK(p.KY[c]) {
			return fmt.Errorf("solver: KY has invalid conductivity at cell %d (%g)", c, p.KY[c])
		}
		if badK(p.KZ[c]) {
			return fmt.Errorf("solver: KZ has invalid conductivity at cell %d (%g)", c, p.KZ[c])
		}
		if math.IsNaN(p.Q[c]) || math.IsInf(p.Q[c], 0) {
			return fmt.Errorf("solver: Q has invalid source at cell %d: %g", c, p.Q[c])
		}
	}
	if p.ZPlaneTBR != nil {
		if len(p.ZPlaneTBR) != p.Grid.NZ()-1 {
			return fmt.Errorf("solver: ZPlaneTBR has %d entries, want %d", len(p.ZPlaneTBR), p.Grid.NZ()-1)
		}
		for k, r := range p.ZPlaneTBR {
			if !(r >= 0) || math.IsInf(r, 1) {
				return fmt.Errorf("solver: ZPlaneTBR has invalid interface resistance at plane %d (%g)", k, r)
			}
		}
	}
	anchored := false
	for f := Face(0); f < numFaces; f++ {
		b := p.Bounds[f]
		switch b.Kind {
		case Dirichlet:
			if math.IsNaN(b.T) || math.IsInf(b.T, 0) {
				return fmt.Errorf("solver: Bounds has invalid temperature on face %s (%g)", f, b.T)
			}
			anchored = true
		case Convective:
			if !(b.H > 0) || math.IsInf(b.H, 1) {
				return fmt.Errorf("solver: Bounds has invalid convective h on face %s (%g)", f, b.H)
			}
			if math.IsNaN(b.T) || math.IsInf(b.T, 0) {
				return fmt.Errorf("solver: Bounds has invalid temperature on face %s (%g)", f, b.T)
			}
			anchored = true
		case Adiabatic:
		default:
			return fmt.Errorf("solver: face %s has unknown BC kind %d", f, b.Kind)
		}
	}
	if !anchored {
		return errors.New("solver: all boundaries adiabatic — steady problem is singular")
	}
	return nil
}

// TotalSourcePower returns ∫q dV over the domain (W).
func (p *Problem) TotalSourcePower() float64 {
	g := p.Grid
	sum := 0.0
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				sum += p.Q[g.Index(i, j, k)] * g.Volume(i, j, k)
			}
		}
	}
	return sum
}

// operator is the assembled finite-volume system  A·T = b  with A
// SPD. Off-diagonal couplings are stored as positive face
// conductances; diag[c] accumulates all couplings plus boundary
// conductance.
//
// Every per-cell array of the operator — and every vector a solve
// works on — is in column order: cell (i, j, k) at (j·nx + i)·nz + k,
// so one z column is nz contiguous values. The stacks are tall and
// narrow, and the SpMV, the z-line solves and every multigrid kernel
// work a column at a time. Grid order (mesh.Grid.Index) stays the
// order of every field a caller passes in or gets back; the solver
// transposes at that boundary only (toColumns, fromColumns).
type operator struct {
	g          *mesh.Grid
	nx, ny, nz int
	gxp        []float64 // conductance to +x neighbor (0 on last column)
	gyp        []float64
	gzp        []float64
	diag       []float64
	// b is the rhs, sources plus boundary terms, of an operator that
	// owns one: a transient integrator's clone and an augmented (C/Δt +
	// A) system. assembleOperator leaves it nil; a steady solve writes
	// its rhs into its leased context instead.
	b []float64
	// bBound is the boundary-only part of the rhs (b before sources are
	// added) — sourcesInto builds a rhs from it for any source field,
	// which is how SolveSteadyBatch re-targets one assembled operator
	// at K power maps.
	bBound []float64
	// bare records that every face between two cells has a nonzero
	// coupling, so whole columns run the SpMV without the g ≠ 0
	// guards; zero is one column of zeros standing in for the
	// couplings and values of a neighbour outside the grid.
	bare bool
	zero []float64
	// diagChecked records that every diagonal entry was verified
	// positive (makePreconditioner's singularity guard) so batched
	// solves scan once, not once per item.
	diagChecked bool
}

// index returns the column-order position of cell (i, j, k).
func (op *operator) index(i, j, k int) int { return (j*op.nx+i)*op.nz + k }

// toColumns writes the grid-order field src into dst in column order.
func (op *operator) toColumns(dst, src []float64) {
	toColumns(dst, src, op.nx, op.ny, op.nz)
}

// fromColumns writes the column-order field src into dst in grid order.
func (op *operator) fromColumns(dst, src []float64) {
	fromColumns(dst, src, op.nx, op.ny, op.nz)
}

// gridField returns a new grid-order copy of the column-order field src.
func (op *operator) gridField(src []float64) []float64 {
	dst := make([]float64, len(src))
	op.fromColumns(dst, src)
	return dst
}

// halfRes returns the half-cell thermal resistance per unit area
// along one axis: (Δ/2)/k.
func halfRes(delta, k float64) float64 { return delta / (2 * k) }

// boundaryG returns the conductance (W/K) from a cell center to a
// boundary condition across the half cell of resistance h (halfRes);
// 0 for adiabatic.
func boundaryG(area, h float64, bc Boundary) float64 {
	switch bc.Kind {
	case Dirichlet:
		return area / h
	case Convective:
		return area / (h + 1/bc.H)
	default:
		return 0
	}
}

// assembleOperator builds the operator for problem p: couplings,
// diagonal and boundary rhs. The rhs b is left nil: every solve writes
// its own from the boundary rhs and its sources (sourcesInto), once.
// It walks the cells in column order, so every array it writes is
// written once, front to back. Each diagonal entry sums the cell's
// faces in the order a grid-order sweep over the cells meets them —
// the faces below, south and west (stored with those neighbours, which
// the column walk has already visited), then the cell's own east,
// north and up faces, then its boundary faces — so every coupling,
// diagonal and boundary rhs entry holds the grid-order assembly's
// value bit for bit (TestEquivalenceAssembleColumns). The faces below,
// south and west are added unguarded, a zero coupling standing in for
// one outside the grid: every coupling is +0 or positive, and
// d + (+0) = d for the non-negative partial sums a diagonal holds.
//
// Each cell's half-cell resistance Δ/(2k) is computed once per axis,
// and each face conductance is then one division: the face area over
// the sum of the two half-cell resistances, the series conductance
// area/(Δ₁/(2k₁) + Δ₂/(2k₂)) evaluated in the same order. A boundary
// face reuses its cell's value. The resistances of a row of columns
// are computed in a pass of their own before its faces, in row
// buffers in column order, so the face divisions wait on none.
func assembleOperator(p *Problem) *operator {
	g := p.Grid
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	n := g.NumCells()
	// Every entry of every array is written below.
	gxp, gyp, gzp := getUncleared(n), getUncleared(n), getUncleared(n)
	diag, bBound := getUncleared(n), getUncleared(n)
	zero := getFloats(nz)
	sy, sz := nx*nz, nx*ny // column stride in y; grid stride in z
	// Half-cell resistances of the row, cell (i, ·, k) at i·nz + k:
	// along x and z, and along y for the row and for the next (hyN);
	// dz holds the layer thicknesses.
	hx, hz := getUncleared(sy), getUncleared(sy)
	hy, hyN := getUncleared(sy), getUncleared(sy)
	dz := getUncleared(nz)
	defer putFloats(hx, hz, hy, hyN, dz)
	for k := range dz {
		dz[k] = g.DZ(k)
	}
	yRes := func(dst []float64, j int) {
		dy := g.DY(j)
		for k := 0; k < nz; k++ {
			for i, kv := range p.KY[k*sz+j*nx : k*sz+j*nx+nx] {
				dst[i*nz+k] = halfRes(dy, kv)
			}
		}
	}
	yRes(hy, 0)
	bc, tbr := p.Bounds, p.ZPlaneTBR
	bare := true
	for j := 0; j < ny; j++ {
		dy := g.DY(j)
		for k, dzk := range dz {
			kx := p.KX[k*sz+j*nx : k*sz+j*nx+nx]
			kz := p.KZ[k*sz+j*nx : k*sz+j*nx+nx][:len(kx)]
			for i := range kx {
				hx[i*nz+k] = halfRes(g.DX(i), kx[i])
				hz[i*nz+k] = halfRes(dzk, kz[i])
			}
		}
		north := j+1 < ny
		if north {
			yRes(hyN, j+1)
		}
		for i := 0; i < nx; i++ {
			dx := g.DX(i)
			east := i+1 < nx
			c0 := (j*nx + i) * nz
			cx := gxp[c0 : c0+nz]
			cy, cz := gyp[c0 : c0+nz][:len(cx)], gzp[c0 : c0+nz][:len(cx)]
			cd, cb := diag[c0 : c0+nz][:len(cx)], bBound[c0 : c0+nz][:len(cx)]
			hxc, hzc := hx[i*nz : i*nz+nz][:len(cx)], hz[i*nz : i*nz+nz][:len(cx)]
			hyc, hyn := hy[i*nz : i*nz+nz][:len(cx)], hyN[i*nz : i*nz+nz][:len(cx)]
			hxe := hxc
			if east {
				hxe = hx[(i+1)*nz : (i+2)*nz][:len(cx)]
			}
			// The west and south faces are stored with the neighbour.
			west, south := zero[:len(cx)], zero[:len(cx)]
			if i > 0 {
				west = gxp[c0-nz : c0][:len(cx)]
			}
			if j > 0 {
				south = gyp[c0-sy : c0-sy+nz][:len(cx)]
			}
			dzc := dz[:len(cx)]
			areaZ := dx * dy
			below := 0.0
			for k := range cx {
				areaX := dy * dzc[k]
				areaY := dx * dzc[k]
				d := below
				d += south[k]
				d += west[k]
				// Interior couplings (+ direction only; the − direction is
				// the neighbour's + coupling), 0 on the last column, row
				// and layer.
				gx, gy, gz := 0.0, 0.0, 0.0
				if east {
					gx = areaX / (hxc[k] + hxe[k])
					bare = bare && gx != 0
					d += gx
				}
				if north {
					gy = areaY / (hyc[k] + hyn[k])
					bare = bare && gy != 0
					d += gy
				}
				if k+1 < len(cx) {
					gz = areaZ / (hzc[k] + hzc[k+1])
					if tbr != nil && tbr[k] > 0 {
						gz = 1 / (1/gz + tbr[k]/areaZ)
					}
					bare = bare && gz != 0
					d += gz
				}
				cx[k], cy[k], cz[k] = gx, gy, gz
				// Boundary faces.
				bb := 0.0
				if i == 0 {
					d, bb = addBoundary(d, bb, areaX, hxc[k], bc[XMin])
				}
				if !east {
					d, bb = addBoundary(d, bb, areaX, hxc[k], bc[XMax])
				}
				if j == 0 {
					d, bb = addBoundary(d, bb, areaY, hyc[k], bc[YMin])
				}
				if !north {
					d, bb = addBoundary(d, bb, areaY, hyc[k], bc[YMax])
				}
				if k == 0 {
					d, bb = addBoundary(d, bb, areaZ, hzc[k], bc[ZMin])
				}
				if k+1 == len(cx) {
					d, bb = addBoundary(d, bb, areaZ, hzc[k], bc[ZMax])
				}
				cd[k], cb[k] = d, bb
				below = gz
			}
		}
		hy, hyN = hyN, hy
	}
	return &operator{
		g: g, nx: nx, ny: ny, nz: nz,
		gxp: gxp, gyp: gyp, gzp: gzp, diag: diag, bBound: bBound,
		bare: bare, zero: zero,
	}
}

// free hands the operator's arrays back to the free list. Only the
// owner of an operator no solve reads any more calls it: a private
// family entry when its call ends, or a hierarchy for the coarse
// operators it built.
func (op *operator) free() {
	putFloats(op.gxp, op.gyp, op.gzp, op.diag, op.b, op.bBound, op.zero)
}

// setSources rebuilds the operator's own rhs b for the volumetric
// source field q (W/m³), as sourcesInto does.
func (op *operator) setSources(q []float64) {
	op.sourcesInto(q, op.b)
}

// sourcesInto writes the rhs for the volumetric source field q (W/m³)
// into dst: b = bBound + q·dV, each cell's boundary terms first, then
// + q·dx·dy·dz. Every solve derives its rhs this way, once — a leased
// solve context's b (see family.go), so solves on a cached entry never
// mutate the shared frozen assembly, or a transient integrator's own.
// q is in grid order and dst in column order: the loop walks dst
// column by column.
func (op *operator) sourcesInto(q, dst []float64) {
	g := op.g
	nx, ny, nz := op.nx, op.ny, op.nz
	sz, zs := nx*ny, g.Zs
	for j := 0; j < ny; j++ {
		dy := g.DY(j)
		for i := 0; i < nx; i++ {
			dx := g.DX(i)
			c := op.index(i, j, 0)
			col, bb := dst[c:c+nz], op.bBound[c:c+nz]
			bb, z := bb[:len(col)], zs[:len(col)+1]
			for k := range col {
				col[k] = bb[k] + q[(j*nx+i)+k*sz]*dx*dy*(z[k+1]-z[k])
			}
		}
	}
}

// addBoundary adds the boundary conductance of one face, across a half
// cell of resistance h, to the diagonal d and its boundary term to the
// rhs b; an adiabatic face adds nothing.
func addBoundary(d, b, area, h float64, bc Boundary) (float64, float64) {
	gb := boundaryG(area, h, bc)
	if gb == 0 {
		return d, b
	}
	return d + gb, b + gb*bc.T
}

// apply computes y = A·x.
func (op *operator) apply(x, y []float64) {
	op.applyRange(x, y, 0, len(x))
}

// applyRange computes y[s:e] of y = A·x. Each call writes only its own
// y range and reads x, so disjoint ranges can run concurrently (the
// chunked SpMV of the parallel kernels). On a bare operator the whole
// columns inside the range run applyColumn; a partial column at either
// end of the range, and every cell of an operator with a zero interior
// coupling, takes the guarded per-cell path. Both evaluate each cell's
// terms in the same order — diagonal, east, west, north, south, up,
// down — and a dropped guard only ever skipped a zero coupling, so the
// two paths give the same bits.
func (op *operator) applyRange(x, y []float64, s, e int) {
	if !op.bare {
		op.applyCells(x, y, s, e)
		return
	}
	nz := op.nz
	c := s
	if r := c % nz; r != 0 {
		h := min(c-r+nz, e)
		op.applyCells(x, y, c, h)
		c = h
	}
	col := c / nz
	i, j := col%op.nx, col/op.nx
	for ; c+nz <= e; c += nz {
		op.applyColumn(x, y, c, i, j)
		if i++; i == op.nx {
			i, j = 0, j+1
		}
	}
	if c < e {
		op.applyCells(x, y, c, e)
	}
}

// column returns the column of v that starts at c, or the zero column
// when ok is false: a neighbour outside the grid.
func (op *operator) column(v []float64, c int, ok bool) []float64 {
	if !ok {
		return op.zero
	}
	return v[c : c+op.nz]
}

// applyColumn computes y = A·x on the whole column (i, j) starting at
// c of a bare operator, with no guard: a neighbour outside the grid —
// lateral, or below the bottom cell — reads a zero coupling and a zero
// value, and subtracting 0·0 = +0 leaves every value as it was. The
// column's own values below and above ride along in registers.
func (op *operator) applyColumn(x, y []float64, c, i, j int) {
	nz := op.nz
	yc := y[c : c+nz]
	xc, d, gz := x[c : c+nz][:len(yc)], op.diag[c : c+nz][:len(yc)], op.gzp[c : c+nz][:len(yc)]
	// The east, west, north and south faces and neighbour values; the
	// west and south faces are stored with the neighbour.
	e, w, n, s := i+1 < op.nx, i > 0, j+1 < op.ny, j > 0
	sy := op.nx * nz
	ge, xe := op.column(op.gxp, c, e)[:len(yc)], op.column(x, c+nz, e)[:len(yc)]
	gw, xw := op.column(op.gxp, c-nz, w)[:len(yc)], op.column(x, c-nz, w)[:len(yc)]
	gn, xn := op.column(op.gyp, c, n)[:len(yc)], op.column(x, c+sy, n)[:len(yc)]
	gs, xs := op.column(op.gyp, c-sy, s)[:len(yc)], op.column(x, c-sy, s)[:len(yc)]
	top := len(yc) - 1
	xd, gd, xk := 0.0, 0.0, xc[0]
	for k := 0; k < top; k++ {
		gk, xu := gz[k], xc[k+1]
		v := d[k]*xk - ge[k]*xe[k]
		v -= gw[k] * xw[k]
		v -= gn[k] * xn[k]
		v -= gs[k] * xs[k]
		v -= gk * xu
		yc[k] = v - gd*xd
		xd, gd, xk = xk, gk, xu
	}
	v := d[top]*xk - ge[top]*xe[top]
	v -= gw[top] * xw[top]
	v -= gn[top] * xn[top]
	v -= gs[top] * xs[top]
	yc[top] = v - gd*xd
}

// applyCells is applyRange's guarded per-cell path. A coupling outside
// the grid is stored as 0 — on the last column, row and layer, which
// the flat neighbour index of the next column, row or layer would
// otherwise reach — so the guards alone keep every read in the grid.
func (op *operator) applyCells(x, y []float64, s, e int) {
	sx, sy := op.nz, op.nx*op.nz
	for c := s; c < e; c++ {
		v := op.diag[c] * x[c]
		if g := op.gxp[c]; g != 0 {
			v -= g * x[c+sx]
		}
		if c >= sx {
			if g := op.gxp[c-sx]; g != 0 {
				v -= g * x[c-sx]
			}
		}
		if g := op.gyp[c]; g != 0 {
			v -= g * x[c+sy]
		}
		if c >= sy {
			if g := op.gyp[c-sy]; g != 0 {
				v -= g * x[c-sy]
			}
		}
		if g := op.gzp[c]; g != 0 {
			v -= g * x[c+1]
		}
		if c >= 1 {
			if g := op.gzp[c-1]; g != 0 {
				v -= g * x[c-1]
			}
		}
		y[c] = v
	}
}
