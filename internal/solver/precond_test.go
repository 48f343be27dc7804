package solver

import (
	"math"
	"testing"

	"thermalscaffold/internal/mesh"
)

// anisotropicStackProblem mimics a chip stack: lateral cells 100×
// wider than layer thicknesses, with strong conductivity contrast.
func anisotropicStackProblem(t *testing.T) *Problem {
	t.Helper()
	zb := mesh.NewZLayerBuilder().
		Add("handle", 10e-6, 2).
		Add("si", 100e-9, 1).
		Add("beol", 940e-9, 2).
		Add("si2", 100e-9, 1).
		Add("beol2", 940e-9, 2)
	xs := make([]float64, 13)
	for i := range xs {
		xs[i] = 30e-6 * float64(i)
	}
	g, err := mesh.New(xs, xs, zb.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(g)
	for k := 0; k < g.NZ(); k++ {
		var kv, kl float64
		switch {
		case k < 2:
			kv, kl = 180, 180
		case k == 2 || k == 5:
			kv, kl = 30, 65
		default:
			kv, kl = 0.35, 5.5
		}
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				c := g.Index(i, j, k)
				p.SetAniso(c, kl, kv)
				if k == 2 || k == 5 {
					p.Q[c] = 53e4 / 100e-9 // 53 W/cm² in the device layer
				}
			}
		}
	}
	p.Bounds[ZMin] = ConvectiveBC(1e6, 373.15)
	return p
}

// TestZeroValuePrecondIsMultigrid: the zero-value Precond, and the
// empty flag spelling, select Multigrid — a zero-value solve is bit
// for bit the explicit multigrid solve, on a stiff stack where z-line
// needs several times the iterations for the same field.
func TestZeroValuePrecondIsMultigrid(t *testing.T) {
	if pc, err := ParsePreconditioner(""); err != nil || pc != Multigrid {
		t.Fatalf(`ParsePreconditioner("") = %v, %v; want multigrid`, pc, err)
	}
	p := anisotropicStackProblem(t)
	rd, err := SolveSteady(p, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := SolveSteady(p, Options{Tol: 1e-10, Precond: Multigrid})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(rd.T, rm.T) {
		t.Error("zero-value Options solve differs from an explicit Multigrid solve")
	}
	rz, err := SolveSteady(p, Options{Tol: 1e-10, Precond: ZLine})
	if err != nil {
		t.Fatal(err)
	}
	for c := range rz.T {
		if math.Abs(rm.T[c]-rz.T[c]) > 1e-5 {
			t.Fatalf("cell %d: multigrid %g vs zline %g", c, rm.T[c], rz.T[c])
		}
	}
	if rm.Iterations >= rz.Iterations {
		t.Errorf("multigrid (%d iters) should beat z-line (%d) on a stiff stack",
			rm.Iterations, rz.Iterations)
	}
	t.Logf("iterations: multigrid=%d zline=%d", rm.Iterations, rz.Iterations)
}

// TestZLineExactFor1DColumn: for a single-column problem the z-line
// preconditioner IS the matrix, so PCG converges in one iteration.
func TestZLineExactFor1DColumn(t *testing.T) {
	g, _ := mesh.Uniform(1e-5, 1e-5, 1e-5, 1, 1, 30)
	p := NewProblem(g)
	for c := range p.KX {
		p.SetIsotropic(c, float64(1+c%5))
		p.Q[c] = 1e9
	}
	p.Bounds[ZMin] = ConvectiveBC(1e5, 300)
	r, err := SolveSteady(p, Options{Tol: 1e-10, Precond: ZLine})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations > 2 {
		t.Errorf("1-D column took %d iterations with exact preconditioner", r.Iterations)
	}
}

func TestUnknownPreconditionerRejected(t *testing.T) {
	p := uniformProblem(t, 2, 2, 2, 1)
	p.Bounds[ZMin] = DirichletBC(300)
	if _, err := SolveSteady(p, Options{Precond: Preconditioner(42)}); err == nil {
		t.Error("unknown preconditioner accepted")
	}
}
