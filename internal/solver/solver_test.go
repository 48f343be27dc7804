package solver

import (
	"math"
	"testing"
	"testing/quick"

	"thermalscaffold/internal/mesh"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (±%g)", msg, got, want, tol)
	}
}

func uniformProblem(t *testing.T, nx, ny, nz int, k float64) *Problem {
	t.Helper()
	g, err := mesh.Uniform(1e-3, 1e-3, 1e-4, nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(g)
	for c := range p.KX {
		p.SetIsotropic(c, k)
		p.Cv[c] = 1.6e6
	}
	return p
}

// TestLinearProfileDirichlet: with fixed temperatures on both z faces
// and no sources, the FVM solution is the exact linear profile at
// cell centers.
func TestLinearProfileDirichlet(t *testing.T) {
	p := uniformProblem(t, 3, 3, 20, 5.0)
	p.Bounds[ZMin] = DirichletBC(300)
	p.Bounds[ZMax] = DirichletBC(400)
	r, err := SolveSteady(p, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	g := p.Grid
	for k := 0; k < g.NZ(); k++ {
		want := 300 + 100*g.CZ(k)/g.LZ()
		got := r.At(1, 1, k)
		approx(t, got, want, 1e-6, "linear profile")
	}
	if r.Iterations <= 0 || r.Residual > 1e-12 {
		t.Errorf("iterations=%d residual=%g", r.Iterations, r.Residual)
	}
}

// TestTwoLayerSeries: two materials in series between Dirichlet
// plates — interface temperature follows the resistor divider.
func TestTwoLayerSeries(t *testing.T) {
	g, _ := mesh.Uniform(1e-4, 1e-4, 2e-4, 2, 2, 40)
	p := NewProblem(g)
	k1, k2 := 1.0, 10.0 // bottom half, top half
	for k := 0; k < g.NZ(); k++ {
		kk := k1
		if k >= g.NZ()/2 {
			kk = k2
		}
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				p.SetIsotropic(g.Index(i, j, k), kk)
			}
		}
	}
	p.Bounds[ZMin] = DirichletBC(300)
	p.Bounds[ZMax] = DirichletBC(420)
	r, err := SolveSteady(p, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic interface temperature: R1 = L/2/k1, R2 = L/2/k2.
	l := g.LZ() / 2
	r1, r2 := l/k1, l/k2
	wantIface := 300 + 120*r1/(r1+r2)
	// Temperature at the last bottom-half cell center extrapolates to
	// the interface by half a cell of k1.
	q := 120 / (r1 + r2) // flux W/m²
	kLast := g.NZ()/2 - 1
	wantCell := wantIface - q*g.DZ(kLast)/(2*k1)
	approx(t, r.At(0, 0, kLast), wantCell, 1e-6, "interface cell")
}

// TestConvectiveStack1D: uniform column with a heat source in the top
// layer and a convective sink at the bottom — the discrete resistor
// chain gives the exact per-cell temperatures.
func TestConvectiveStack1D(t *testing.T) {
	g, _ := mesh.Uniform(1e-4, 1e-4, 1e-4, 1, 1, 10)
	p := NewProblem(g)
	k := 2.5
	for c := range p.KX {
		p.SetIsotropic(c, k)
	}
	h, t0 := 1e5, 373.15
	p.Bounds[ZMin] = ConvectiveBC(h, t0)
	qVol := 1e12 // W/m³ in top cell
	top := g.Index(0, 0, g.NZ()-1)
	p.Q[top] = qVol
	r, err := SolveSteady(p, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	area := g.DX(0) * g.DY(0)
	pw := qVol * g.Volume(0, 0, g.NZ()-1)
	flux := pw / area
	dz := g.DZ(0)
	for m := 0; m < g.NZ(); m++ {
		want := t0 + flux*(1/h+dz/(2*k)+float64(m)*dz/k)
		approx(t, r.At(0, 0, m), want, 1e-6, "convective chain")
	}
}

// TestEnergyConservation: total boundary outflow equals total source
// power on a heterogeneous anisotropic problem.
func TestEnergyConservation(t *testing.T) {
	g, _ := mesh.Uniform(2e-4, 3e-4, 5e-5, 6, 5, 8)
	p := NewProblem(g)
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>40) / float64(1<<24)
	}
	for c := range p.KX {
		p.KX[c] = 0.2 + 100*next()
		p.KY[c] = 0.2 + 100*next()
		p.KZ[c] = 0.2 + 100*next()
		p.Q[c] = 1e10 * next()
	}
	p.Bounds[ZMin] = ConvectiveBC(1e6, 373.15)
	p.Bounds[XMax] = DirichletBC(350)
	r, err := SolveSteady(p, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	total := p.TotalSourcePower()
	out := 0.0
	for f := Face(0); f < numFaces; f++ {
		out += BoundaryFlux(p, r, f)
	}
	approx(t, out, total, math.Abs(total)*1e-8, "energy balance")
}

// TestMaximumPrinciple: with non-negative sources every temperature
// is at least the coolest boundary temperature, and with zero sources
// the field is bounded by the boundary temperatures.
func TestMaximumPrinciple(t *testing.T) {
	p := uniformProblem(t, 5, 5, 5, 3)
	p.Bounds[ZMin] = ConvectiveBC(1e4, 300)
	p.Bounds[ZMax] = DirichletBC(320)
	r, err := SolveSteady(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Min() < 300-1e-9 || r.Max() > 320+1e-9 {
		t.Errorf("no-source field [%g, %g] escapes boundary range [300, 320]", r.Min(), r.Max())
	}
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	r2, err := SolveSteady(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Min() < 300-1e-9 {
		t.Errorf("heated field dips below coolest boundary: %g", r2.Min())
	}
	if r2.Max() <= r.Max() {
		t.Errorf("adding sources did not raise the peak (%g vs %g)", r2.Max(), r.Max())
	}
}

// TestMonotoneInPower: doubling all sources doubles the temperature
// rise over ambient (the problem is linear).
func TestMonotoneInPower(t *testing.T) {
	p := uniformProblem(t, 4, 4, 6, 1.5)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 373.15)
	for c := range p.Q {
		p.Q[c] = 5e9
	}
	r1, err := SolveSteady(p, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for c := range p.Q {
		p.Q[c] *= 2
	}
	r2, err := SolveSteady(p, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	rise1 := r1.Max() - 373.15
	rise2 := r2.Max() - 373.15
	approx(t, rise2, 2*rise1, 2e-5*rise1, "linearity in power")
}

// TestSymmetry: a centered source in a symmetric domain yields a
// mirror-symmetric field.
func TestSymmetry(t *testing.T) {
	p := uniformProblem(t, 7, 7, 4, 10)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 300)
	g := p.Grid
	p.Q[g.Index(3, 3, 3)] = 1e12
	r, err := SolveSteady(p, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				a := r.At(i, j, k)
				b := r.At(6-i, j, k)
				c := r.At(i, 6-j, k)
				if math.Abs(a-b) > 1e-6 || math.Abs(a-c) > 1e-6 {
					t.Fatalf("asymmetry at (%d,%d,%d): %g %g %g", i, j, k, a, b, c)
				}
			}
		}
	}
}

// TestCGMatchesDirect checks PCG against an independent direct
// solve on a heterogeneous, anisotropic, convective problem: the
// 120-unknown operator is materialized column by column (A·eⱼ) and
// solved by dense Gaussian elimination with partial pivoting.
func TestCGMatchesDirect(t *testing.T) {
	g, _ := mesh.Uniform(1e-4, 1e-4, 2e-5, 5, 4, 6)
	p := NewProblem(g)
	for c := range p.KX {
		p.SetAniso(c, float64(1+c%7), float64(1+c%3))
		p.Q[c] = float64(c%11) * 1e9
	}
	p.Bounds[ZMin] = ConvectiveBC(2e5, 350)
	cg, err := SolveSteady(p, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	op := assemble(p)
	n := len(op.b)
	a := make([][]float64, n) // row-major dense A
	for i := range a {
		a[i] = make([]float64, n)
	}
	e, col := make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		op.apply(e, col)
		e[j] = 0
		for i := range col {
			a[i][j] = col[i]
		}
	}
	// The operator is in column order; the field comes back in grid
	// order.
	direct := op.gridField(gaussSolve(a, append([]float64(nil), op.b...)))
	for c := range cg.T {
		if d := math.Abs(cg.T[c] - direct[c]); d > 1e-8 {
			t.Fatalf("cell %d: CG %g vs direct %g (|Δ| = %g K)", c, cg.T[c], direct[c], d)
		}
	}
}

// gaussSolve solves a·x = b in place by Gaussian elimination with
// partial pivoting and returns x (a and b are overwritten).
func gaussSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for k := 0; k < n; k++ {
		piv := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[piv][k]) {
				piv = i
			}
		}
		a[k], a[piv] = a[piv], a[k]
		b[k], b[piv] = b[piv], b[k]
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

func TestValidateRejections(t *testing.T) {
	p := uniformProblem(t, 2, 2, 2, 1)
	// All adiabatic: singular.
	if _, err := SolveSteady(p, Options{}); err == nil {
		t.Error("all-adiabatic problem accepted")
	}
	// Bad convective h.
	p.Bounds[ZMin] = Boundary{Kind: Convective, H: 0, T: 300}
	if err := p.Validate(); err == nil {
		t.Error("zero-h convective accepted")
	}
	// Negative conductivity.
	p.Bounds[ZMin] = DirichletBC(300)
	p.KX[0] = -1
	if err := p.Validate(); err == nil {
		t.Error("negative conductivity accepted")
	}
	p.KX[0] = 1
	// NaN source.
	p.Q[0] = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("NaN source accepted")
	}
	p.Q[0] = 0
	// Mis-sized arrays.
	p.KY = p.KY[:3]
	if err := p.Validate(); err == nil {
		t.Error("short KY accepted")
	}
	// Nil grid.
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("nil grid accepted")
	}
}

func TestZeroRHS(t *testing.T) {
	p := uniformProblem(t, 3, 3, 3, 1)
	p.Bounds[ZMin] = DirichletBC(0) // T=0 boundary, no sources
	r, err := SolveSteady(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Max() != 0 || r.Min() != 0 {
		t.Errorf("zero problem gave [%g, %g]", r.Min(), r.Max())
	}
}

func TestInitialGuessAccelerates(t *testing.T) {
	p := uniformProblem(t, 6, 6, 6, 4)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 373)
	for c := range p.Q {
		p.Q[c] = 1e10
	}
	r1, err := SolveSteady(p, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveSteady(p, Options{Tol: 1e-10, InitialGuess: r1.T})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Iterations > 2 {
		t.Errorf("warm start took %d iterations", r2.Iterations)
	}
	if len(r2.T) != len(r1.T) {
		t.Error("result size mismatch")
	}
	// Wrong-size guess is rejected.
	if _, err := SolveSteady(p, Options{InitialGuess: []float64{1}}); err == nil {
		t.Error("short initial guess accepted")
	}
}

// TestExactInitialGuess: a guess that solves the system exactly (here
// a solve's own answer, where b − A·x is exactly zero) comes back
// unchanged after 0 iterations. PCG used to iterate on the zero
// residual, find pᵀAp = 0 and fail with a breakdown.
func TestExactInitialGuess(t *testing.T) {
	p := sinkCell()
	first, err := SolveSteady(p, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveSteady(p, Options{Tol: 1e-13, InitialGuess: first.T})
	if err != nil {
		t.Fatalf("seeded with its own answer: %v", err)
	}
	if res.Iterations != 0 || res.Residual != 0 {
		t.Errorf("got %d iterations, residual %g; want 0, 0", res.Iterations, res.Residual)
	}
	if math.Float64bits(res.T[0]) != math.Float64bits(first.T[0]) {
		t.Errorf("field %v, want the guess %v", res.T[0], first.T[0])
	}
}

func TestLayerHelpers(t *testing.T) {
	p := uniformProblem(t, 3, 3, 4, 2)
	p.Bounds[ZMin] = DirichletBC(300)
	p.Bounds[ZMax] = DirichletBC(340)
	r, err := SolveSteady(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 4; k++ {
		if r.LayerMean(k) <= r.LayerMean(k-1) {
			t.Errorf("layer means not increasing at %d", k)
		}
		if r.LayerMax(k) < r.LayerMean(k)-1e-9 {
			t.Errorf("layer max below mean at %d", k)
		}
	}
}

func TestBoundaryFluxAdiabaticZero(t *testing.T) {
	p := uniformProblem(t, 3, 3, 3, 1)
	p.Bounds[ZMin] = DirichletBC(300)
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	r, err := SolveSteady(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Face{XMin, XMax, YMin, YMax, ZMax} {
		if fl := BoundaryFlux(p, r, f); fl != 0 {
			t.Errorf("adiabatic face %s reports flux %g", f, fl)
		}
	}
}

// TestGridConvergence: refining the grid changes the answer by a
// diminishing amount (spreading problem with a quarter-domain hot
// spot).
func TestGridConvergence(t *testing.T) {
	solveAt := func(n int) float64 {
		g, _ := mesh.Uniform(1e-4, 1e-4, 2e-5, n, n, 8)
		p := NewProblem(g)
		for c := range p.KX {
			p.SetIsotropic(c, 10)
		}
		p.Bounds[ZMin] = ConvectiveBC(1e6, 373.15)
		for k := 0; k < g.NZ(); k++ {
			for j := 0; j < g.NY(); j++ {
				for i := 0; i < g.NX(); i++ {
					if g.CX(i) < 0.5e-4 && g.CY(j) < 0.5e-4 && k == g.NZ()-1 {
						p.Q[g.Index(i, j, k)] = 4e11
					}
				}
			}
		}
		r, err := SolveSteady(p, Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		return r.Max()
	}
	c8, c16, c32 := solveAt(8), solveAt(16), solveAt(32)
	d1 := math.Abs(c16 - c8)
	d2 := math.Abs(c32 - c16)
	// Richardson estimate: successive differences of a p-th order
	// scheme shrink by 2^p under halving, so p ≈ log2(d1/d2). The
	// z-grid is fixed across the sequence, so only the in-plane error
	// refines; assert clearly-superlinear rather than a full 2.0.
	p := math.Log2(d1 / d2)
	if p < 1.2 {
		t.Errorf("observed in-plane convergence order %.2f < 1.2 (|T16-T8|=%g, |T32-T16|=%g)", p, d1, d2)
	}
	if d2/c32 > 0.02 {
		t.Errorf("32-point grid still %g%% off", 100*d2/c32)
	}
}

// TestQuickMaxPrinciple: randomized source fields never produce a
// temperature below the sink ambient.
func TestQuickMaxPrinciple(t *testing.T) {
	g, _ := mesh.Uniform(5e-5, 5e-5, 1e-5, 4, 4, 4)
	f := func(seeds [8]uint8) bool {
		p := NewProblem(g)
		for c := range p.KX {
			p.SetIsotropic(c, 1+float64(seeds[c%8]))
			p.Q[c] = float64(seeds[(c+3)%8]) * 1e9
		}
		p.Bounds[ZMin] = ConvectiveBC(1e5, 323.15)
		r, err := SolveSteady(p, Options{})
		if err != nil {
			return false
		}
		return r.Min() >= 323.15-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFaceAndBCStrings(t *testing.T) {
	if XMin.String() != "x-" || ZMax.String() != "z+" {
		t.Error("face strings wrong")
	}
	if Adiabatic.String() != "adiabatic" || Convective.String() != "convective" || Dirichlet.String() != "dirichlet" {
		t.Error("BC kind strings wrong")
	}
	if Face(99).String() == "" || BCKind(99).String() == "" {
		t.Error("unknown values should still render")
	}
}
