package solver

import (
	"fmt"

	"thermalscaffold/internal/mesh"
)

// Assembled is a read-only façade over the assembled finite-volume
// operator A·T = b. It exposes exactly what reduced-order model
// construction needs — the face conductances, the boundary
// conductance and boundary rhs, and a concurrent-safe Apply — without
// exporting the operator's mutable internals. Every view, and every
// field Apply and RHS take or write, is in grid order (mesh.Grid.Index);
// the operator's column order stays inside: Assemble transposes the
// views once, and Apply transposes its vectors in and out. Every method
// is safe for concurrent use by multiple goroutines.
type Assembled struct {
	op            *operator
	gxp, gyp, gzp []float64 // face conductances, grid order
	bBound        []float64 // boundary-only rhs, grid order
	bdiag         []float64 // boundary conductance per cell (W/K), 0 in the interior
	vol           []float64 // cell volumes (m³)
}

// Assemble validates p and builds its finite-volume operator. The
// returned Assembled is immutable: re-sourcing is done through RHS
// into caller-owned storage, never by mutating the operator.
func Assemble(p *Problem) (*Assembled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	op := assemble(p)
	g := p.Grid
	n := g.NumCells()
	bdiag := make([]float64, n)
	vol := make([]float64, n)
	nx, ny, nz := op.nx, op.ny, op.nz
	for k := 0; k < nz; k++ {
		dz := g.DZ(k)
		for j := 0; j < ny; j++ {
			dy := g.DY(j)
			for i := 0; i < nx; i++ {
				dx := g.DX(i)
				c := g.Index(i, j, k)
				vol[c] = dx * dy * dz
				// Recompute the boundary conductance exactly as assemble
				// did (same boundaryG calls, same order) rather than by
				// subtracting couplings from diag — subtraction would
				// smear rounding from the interior terms into bdiag.
				if i == 0 {
					bdiag[c] += boundaryG(dy*dz, dx, p.KX[c], p.Bounds[XMin])
				}
				if i == nx-1 {
					bdiag[c] += boundaryG(dy*dz, dx, p.KX[c], p.Bounds[XMax])
				}
				if j == 0 {
					bdiag[c] += boundaryG(dx*dz, dy, p.KY[c], p.Bounds[YMin])
				}
				if j == ny-1 {
					bdiag[c] += boundaryG(dx*dz, dy, p.KY[c], p.Bounds[YMax])
				}
				if k == 0 {
					bdiag[c] += boundaryG(dx*dy, dz, p.KZ[c], p.Bounds[ZMin])
				}
				if k == nz-1 {
					bdiag[c] += boundaryG(dx*dy, dz, p.KZ[c], p.Bounds[ZMax])
				}
			}
		}
	}
	return &Assembled{
		op:  op,
		gxp: op.gridField(op.gxp), gyp: op.gridField(op.gyp), gzp: op.gridField(op.gzp),
		bBound: op.gridField(op.bBound),
		bdiag:  bdiag, vol: vol,
	}, nil
}

// NumCells returns the unknown count of the linear system.
func (a *Assembled) NumCells() int { return len(a.op.diag) }

// Grid returns the mesh the operator was assembled on.
func (a *Assembled) Grid() *mesh.Grid { return a.op.g }

// Dims returns the grid dimensions (nx, ny, nz).
func (a *Assembled) Dims() (nx, ny, nz int) { return a.op.nx, a.op.ny, a.op.nz }

// Apply computes y = A·x. Safe for concurrent use; x and y must have
// NumCells entries and must not alias. Each cell's value is the
// operator's own SpMV expression, so the bits do not depend on the
// transposes around it.
func (a *Assembled) Apply(x, y []float64) {
	n := len(x)
	xc, yc := getUncleared(n), getUncleared(n)
	a.op.toColumns(xc, x)
	a.op.apply(xc, yc)
	a.op.fromColumns(y, yc)
	putFloats(xc, yc)
}

// RHS writes the right-hand side for the volumetric source field q
// (W/m³) into dst and returns it: dst = bBound + q·dV, in the exact
// per-cell arithmetic order of assembly, so the result is bitwise
// identical to the b of a Problem carrying Q = q. dst is allocated
// when nil; the operator itself is never mutated, so concurrent RHS
// calls with distinct dst are safe.
func (a *Assembled) RHS(q, dst []float64) ([]float64, error) {
	n := a.NumCells()
	if len(q) != n {
		return nil, fmt.Errorf("solver: RHS source field has %d entries, want %d", len(q), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("solver: RHS dst has %d entries, want %d", len(dst), n)
	}
	g := a.op.g
	for k := 0; k < g.NZ(); k++ {
		dz := g.DZ(k)
		for j := 0; j < g.NY(); j++ {
			dy := g.DY(j)
			for i := 0; i < g.NX(); i++ {
				c := g.Index(i, j, k)
				dst[c] = a.bBound[c] + q[c]*g.DX(i)*dy*dz
			}
		}
	}
	return dst, nil
}

// BoundaryRHS returns the boundary-only part of the right-hand side
// (the b of a zero-source problem). The slice is a read-only view —
// callers must not modify it.
func (a *Assembled) BoundaryRHS() []float64 { return a.bBound }

// FaceConductances returns the +x/+y/+z face conductance arrays
// (W/K); entry c couples cell c to its + neighbor and is 0 on the
// last column/row/plane. Read-only views — callers must not modify.
func (a *Assembled) FaceConductances() (gxp, gyp, gzp []float64) {
	return a.gxp, a.gyp, a.gzp
}

// BoundaryConductance returns the per-cell conductance to boundary
// conditions (W/K), zero for interior cells and adiabatic faces.
// Read-only view — callers must not modify.
func (a *Assembled) BoundaryConductance() []float64 { return a.bdiag }

// CellVolumes returns the per-cell volumes (m³). Read-only view.
func (a *Assembled) CellVolumes() []float64 { return a.vol }
