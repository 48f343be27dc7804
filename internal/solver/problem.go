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
// construction) with Jacobi, z-line, or multigrid preconditioning.
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
		KX:   getFloats(n),
		KY:   getFloats(n),
		KZ:   getFloats(n),
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
type operator struct {
	g          *mesh.Grid
	nx, ny, nz int
	sy, sz     int       // index strides
	gxp        []float64 // conductance to +x neighbor (0 on last column)
	gyp        []float64
	gzp        []float64
	diag       []float64
	b          []float64 // rhs: sources + boundary terms
	// bBound is the boundary-only part of b (b before sources were
	// added) — setSources rebuilds b from it for a new source field,
	// which is how SolveSteadyBatch re-targets one assembled operator
	// at K power maps.
	bBound []float64
	// st is the structure-of-arrays stencil built by ensureStencil:
	// seven coefficients per cell in one contiguous stream, in the
	// exact accumulation order of the legacy applyRange — [diag,
	// gxp(c), gxp(c−1), gyp(c), gyp(c−sy), gzp(c), gzp(c−sz)] — with
	// zeros baked in at domain edges so the apply kernels need no
	// index guards. The slice views (gxp…diag) stay authoritative for
	// assembly-time consumers (coarsening, Thomas factors).
	st []float64
	// diagChecked records that every diagonal entry was verified
	// positive (makePreconditioner's singularity guard) so batched
	// solves scan once, not once per item.
	diagChecked bool
}

// stencilStride is the per-cell width of operator.st.
const stencilStride = 7

// ensureStencil builds the SoA stencil once per operator; subsequent
// calls are free. Callers must invoke it before any parallel kernel
// that reads op.st (the build itself is a single serial pass).
func (op *operator) ensureStencil() {
	if op.st != nil {
		return
	}
	n := len(op.diag)
	sy, sz := op.sy, op.sz
	st := getFloats(stencilStride * n)
	for c := 0; c < n; c++ {
		o := stencilStride * c
		st[o] = op.diag[c]
		st[o+1] = op.gxp[c]
		if c >= 1 {
			st[o+2] = op.gxp[c-1]
		}
		st[o+3] = op.gyp[c]
		if c >= sy {
			st[o+4] = op.gyp[c-sy]
		}
		st[o+5] = op.gzp[c]
		if c >= sz {
			st[o+6] = op.gzp[c-sz]
		}
	}
	op.st = st
}

// halfRes returns the half-cell thermal resistance per unit area
// along one axis: (Δ/2)/k.
func halfRes(delta, k float64) float64 { return delta / (2 * k) }

// faceG returns the series conductance (W/K) between two adjacent
// half-cells with the given face area.
func faceG(area, d1, k1, d2, k2 float64) float64 {
	return area / (halfRes(d1, k1) + halfRes(d2, k2))
}

// boundaryG returns the conductance (W/K) from a cell center to a
// boundary condition across the half cell; 0 for adiabatic.
func boundaryG(area, d, k float64, bc Boundary) float64 {
	switch bc.Kind {
	case Dirichlet:
		return area / halfRes(d, k)
	case Convective:
		return area / (halfRes(d, k) + 1/bc.H)
	default:
		return 0
	}
}

// assemble builds the operator for problem p.
func assemble(p *Problem) *operator {
	g := p.Grid
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	n := g.NumCells()
	op := &operator{
		g: g, nx: nx, ny: ny, nz: nz,
		sy: nx, sz: nx * ny,
		gxp:  getFloats(n),
		gyp:  getFloats(n),
		gzp:  getFloats(n),
		diag: getFloats(n),
		b:    getFloats(n),
	}
	for k := 0; k < nz; k++ {
		dz := g.DZ(k)
		for j := 0; j < ny; j++ {
			dy := g.DY(j)
			for i := 0; i < nx; i++ {
				dx := g.DX(i)
				c := g.Index(i, j, k)
				areaX := dy * dz
				areaY := dx * dz
				areaZ := dx * dy
				// Interior couplings (+ direction only; the − direction is
				// the neighbor's + coupling).
				if i+1 < nx {
					e := c + 1
					gc := faceG(areaX, dx, p.KX[c], g.DX(i+1), p.KX[e])
					op.gxp[c] = gc
					op.diag[c] += gc
					op.diag[e] += gc
				}
				if j+1 < ny {
					e := c + op.sy
					gc := faceG(areaY, dy, p.KY[c], g.DY(j+1), p.KY[e])
					op.gyp[c] = gc
					op.diag[c] += gc
					op.diag[e] += gc
				}
				if k+1 < nz {
					e := c + op.sz
					gc := faceG(areaZ, dz, p.KZ[c], g.DZ(k+1), p.KZ[e])
					if p.ZPlaneTBR != nil && p.ZPlaneTBR[k] > 0 {
						gc = 1 / (1/gc + p.ZPlaneTBR[k]/areaZ)
					}
					op.gzp[c] = gc
					op.diag[c] += gc
					op.diag[e] += gc
				}
				// Boundary faces.
				if i == 0 {
					op.addBoundary(c, areaX, dx, p.KX[c], p.Bounds[XMin])
				}
				if i == nx-1 {
					op.addBoundary(c, areaX, dx, p.KX[c], p.Bounds[XMax])
				}
				if j == 0 {
					op.addBoundary(c, areaY, dy, p.KY[c], p.Bounds[YMin])
				}
				if j == ny-1 {
					op.addBoundary(c, areaY, dy, p.KY[c], p.Bounds[YMax])
				}
				if k == 0 {
					op.addBoundary(c, areaZ, dz, p.KZ[c], p.Bounds[ZMin])
				}
				if k == nz-1 {
					op.addBoundary(c, areaZ, dz, p.KZ[c], p.Bounds[ZMax])
				}
			}
		}
	}
	// Snapshot the boundary-only rhs, then add the sources. b[c] is
	// touched only in cell c's own iteration (couplings accumulate
	// into diag, not b), so splitting the source add into a second
	// pass keeps the exact per-cell accumulation order: boundary
	// terms first, then + q·dx·dy·dz.
	op.bBound = getFloats(n)
	copy(op.bBound, op.b)
	op.setSources(p.Q)
	return op
}

// free hands the operator's arrays back to the free list. Only the
// owner of an operator no solve reads any more calls it: a private
// family entry when its call ends, or a hierarchy for the coarse
// operators it built.
func (op *operator) free() {
	putFloats(op.gxp, op.gyp, op.gzp, op.diag, op.b, op.bBound, op.st)
}

// setSources rebuilds the rhs for the volumetric source field q
// (W/m³): b = bBound + q·dV, in the exact per-cell arithmetic order
// of assemble, so an operator re-sourced with q is bitwise identical
// to one assembled from a Problem carrying Q = q.
func (op *operator) setSources(q []float64) {
	op.sourcesInto(q, op.b)
}

// sourcesInto is setSources targeting a caller-provided RHS vector —
// a leased solve context's b (see family.go), so solves on a cached
// entry derive their RHS from the shared frozen assembly without
// mutating it. Identical arithmetic, so dst is bitwise equal to the b
// a fresh assembly with Q = q would carry.
func (op *operator) sourcesInto(q, dst []float64) {
	g := op.g
	nx, ny, nz := op.nx, op.ny, op.nz
	for k := 0; k < nz; k++ {
		dz := g.DZ(k)
		for j := 0; j < ny; j++ {
			dy := g.DY(j)
			base := (k*ny + j) * nx
			for i := 0; i < nx; i++ {
				c := base + i
				dst[c] = op.bBound[c] + q[c]*g.DX(i)*dy*dz
			}
		}
	}
}

func (op *operator) addBoundary(c int, area, d, k float64, bc Boundary) {
	gb := boundaryG(area, d, k, bc)
	if gb == 0 {
		return
	}
	op.diag[c] += gb
	op.b[c] += gb * bc.T
}

// apply computes y = A·x.
func (op *operator) apply(x, y []float64) {
	op.applyRange(x, y, 0, len(x))
}

// applyRange computes y[start:end] of y = A·x. Each call writes only
// its own y range and reads x, so disjoint ranges can run
// concurrently (the chunked SpMV of the parallel kernels). When the
// SoA stencil has been built the kernel streams one coefficient
// array instead of seven strided views of four; both paths evaluate
// the identical per-cell expression in the identical order (the
// stencil bakes zeros at domain edges exactly where the index guards
// used to skip reads), so the results are bitwise equal.
func (op *operator) applyRange(x, y []float64, start, end int) {
	if st := op.st; st != nil {
		sy, sz := op.sy, op.sz
		for c := start; c < end; c++ {
			o := stencilStride * c
			v := st[o] * x[c]
			if g := st[o+1]; g != 0 {
				v -= g * x[c+1]
			}
			if g := st[o+2]; g != 0 {
				v -= g * x[c-1]
			}
			if g := st[o+3]; g != 0 {
				v -= g * x[c+sy]
			}
			if g := st[o+4]; g != 0 {
				v -= g * x[c-sy]
			}
			if g := st[o+5]; g != 0 {
				v -= g * x[c+sz]
			}
			if g := st[o+6]; g != 0 {
				v -= g * x[c-sz]
			}
			y[c] = v
		}
		return
	}
	sy, sz := op.sy, op.sz
	for c := start; c < end; c++ {
		v := op.diag[c] * x[c]
		if g := op.gxp[c]; g != 0 {
			v -= g * x[c+1]
		}
		if c >= 1 {
			if g := op.gxp[c-1]; g != 0 {
				v -= g * x[c-1]
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
			v -= g * x[c+sz]
		}
		if c >= sz {
			if g := op.gzp[c-sz]; g != 0 {
				v -= g * x[c-sz]
			}
		}
		y[c] = v
	}
}
