package solver

// Serial-vs-parallel equivalence and determinism suite. The parallel
// kernels (Options.Workers ≥ 2) promise:
//
//  1. bit-identical results run-to-run at a fixed worker count,
//  2. bit-identical results across any worker count ≥ 2 (chunk
//     boundaries depend only on problem size, reductions combine in
//     chunk order),
//  3. agreement with the exact legacy serial path (Workers=1) within
//     1e-12 relative — the two differ only by floating-point
//     summation order in the PCG dot products (problems smaller than
//     one reduction chunk are bitwise identical even serial-vs-
//     parallel).
//
// Run with `go test -run Equivalence -count=2 -race` (the Makefile
// `equivalence` target) to catch scheduling-dependent nondeterminism.

import (
	"math"
	"testing"

	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/parallel"
)

// eqRNG is a splitmix64-style deterministic generator so the
// randomized problems are reproducible across runs and platforms.
type eqRNG struct{ s uint64 }

func (r *eqRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *eqRNG) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *eqRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomGrid builds a non-uniform rectilinear grid with the given
// cell counts and randomized spacings (0.5–1.5× the nominal pitch).
func randomGrid(t *testing.T, rng *eqRNG, nx, ny, nz int) *mesh.Grid {
	t.Helper()
	axis := func(n int, pitch float64) []float64 {
		xs := make([]float64, n+1)
		for i := 1; i <= n; i++ {
			xs[i] = xs[i-1] + pitch*(0.5+rng.float())
		}
		return xs
	}
	g, err := mesh.New(axis(nx, 1e-4), axis(ny, 1e-4), axis(nz, 2e-5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomProblem builds an anchored conduction problem with random
// anisotropic conductivity (0.5–50 W/m/K), random sources, a random
// mix of boundary conditions, and (half the time) random z-interface
// TBR — the input classes the paper's stacks exercise.
func randomProblem(t *testing.T, rng *eqRNG, nx, ny, nz int) *Problem {
	t.Helper()
	g := randomGrid(t, rng, nx, ny, nz)
	p := NewProblem(g)
	for c := range p.KX {
		p.KX[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.KY[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.KZ[c] = 0.5 * math.Pow(10, 2*rng.float())
		p.Q[c] = rng.float() * 2e9
		p.Cv[c] = 1e6 * (0.5 + rng.float())
	}
	for f := Face(0); f < numFaces; f++ {
		switch rng.intn(3) {
		case 0:
			p.Bounds[f] = AdiabaticBC()
		case 1:
			p.Bounds[f] = DirichletBC(280 + 100*rng.float())
		case 2:
			p.Bounds[f] = ConvectiveBC(math.Pow(10, 4+2*rng.float()), 280+100*rng.float())
		}
	}
	// Guarantee the steady problem is anchored.
	if p.Bounds[ZMin].Kind == Adiabatic && p.Bounds[ZMax].Kind == Adiabatic {
		p.Bounds[ZMin] = DirichletBC(300 + 50*rng.float())
	}
	if rng.intn(2) == 0 {
		tbr := make([]float64, nz-1)
		for k := range tbr {
			tbr[k] = rng.float() * 1e-7
		}
		p.ZPlaneTBR = tbr
	}
	return p
}

// relDiff returns max|a−b| normalized by max|a|.
func relDiff(a, b []float64) float64 {
	scale, diff := 0.0, 0.0
	for c := range a {
		if v := math.Abs(a[c]); v > scale {
			scale = v
		}
		if d := math.Abs(a[c] - b[c]); d > diff {
			diff = d
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// bitIdentical reports whether two fields agree in every bit.
func bitIdentical(a, b []float64) bool {
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// testKern returns a kern for an n-cell solve on a fresh engine of
// the given worker count, closed when the test ends.
func testKern(tb testing.TB, workers, n int) *kern {
	tb.Helper()
	eng := NewEngine(workers)
	tb.Cleanup(eng.Close)
	return newKern(eng.pool, n)
}

// equivalenceSizes mixes problems below the reduction chunk size
// (where serial and parallel are bitwise identical) with larger ones
// that genuinely exercise the chunked deterministic reductions.
var equivalenceSizes = [][3]int{
	{3, 4, 5},
	{7, 6, 4},
	{8, 8, 9},    // 576 cells, single reduction chunk
	{14, 12, 10}, // 1680 cells, 2 chunks
	{20, 18, 8},  // 2880 cells, 3 chunks
	{24, 20, 12}, // 5760 cells, 6 chunks
}

// TestEquivalenceSteady: for randomized problems and both
// preconditioners, the parallel steady solve matches the serial
// legacy path within 1e-12 relative.
func TestEquivalenceSteady(t *testing.T) {
	rng := &eqRNG{s: 0xA11CE}
	for round, size := range equivalenceSizes {
		p := randomProblem(t, rng, size[0], size[1], size[2])
		for _, pc := range []Preconditioner{Jacobi, ZLine, Multigrid} {
			opts := Options{Tol: 1e-13, MaxIter: 100000, Precond: pc}
			optsSer := opts
			optsSer.Workers = 1
			ser, err := SolveSteady(p, optsSer)
			if err != nil {
				t.Fatalf("round %d precond %d serial: %v", round, pc, err)
			}
			optsPar := opts
			optsPar.Workers = 4
			par, err := SolveSteady(p, optsPar)
			if err != nil {
				t.Fatalf("round %d precond %d parallel: %v", round, pc, err)
			}
			if d := relDiff(ser.T, par.T); d > 1e-12 {
				t.Errorf("round %d precond %d: serial vs parallel rel diff %g > 1e-12", round, pc, d)
			}
		}
	}
}

// TestEquivalenceDeterminism: repeated parallel solves are bitwise
// identical at a fixed worker count, and — the stronger property the
// fixed-chunk reductions buy — across different worker counts ≥ 2.
func TestEquivalenceDeterminism(t *testing.T) {
	rng := &eqRNG{s: 0xD37E12}
	p := randomProblem(t, rng, 20, 16, 12) // 3840 cells, 4 reduction chunks
	var ref []float64
	for _, w := range []int{2, 2, 3, 4, 8} {
		r, err := SolveSteady(p, Options{Tol: 1e-13, MaxIter: 100000, Precond: ZLine, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = r.T
		} else if !bitIdentical(ref, r.T) {
			t.Errorf("workers=%d: field differs bitwise from workers=2 reference (rel %g)", w, relDiff(ref, r.T))
		}
	}
}

// TestEquivalenceDispatchedDeterminism: on a grid large enough that
// its fine level and PCG vectors dispatch to the pool's helpers while
// its coarse levels run inline — the mixed shape every large solve
// has — a multigrid solve is bitwise identical across worker counts
// ≥ 2. The smaller problems above run every region inline.
func TestEquivalenceDispatchedDeterminism(t *testing.T) {
	rng := &eqRNG{s: 0xD15BA7}
	p := randomProblem(t, rng, 80, 80, 10) // 64 000 cells: 63 reduction chunks, 40 fine-level column chunks
	op := assemble(p)
	n := len(op.b)
	var ref []float64
	for _, w := range []int{2, 3, 8} {
		mg := newMultigridTier[float64](op, testKern(t, w, n))
		for l, lvl := range mg.levels {
			if want := l == 0; lvl.dispatch != want {
				t.Fatalf("workers=%d: level %d (%dx%dx%d) dispatch = %v, want %v", w, l, lvl.nx, lvl.ny, lvl.nz, lvl.dispatch, want)
			}
		}
		if mg.levels[0].bands < 2 {
			t.Fatalf("workers=%d: fine level has %d down-leg bands, want ≥ 2", w, mg.levels[0].bands)
		}
		before := parallel.RegionsDispatched()
		r, err := SolveSteady(p, Options{Tol: 1e-10, MaxIter: 10000, Precond: Multigrid, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(r.Fallbacks) != 0 {
			t.Fatalf("workers=%d: multigrid broke down (fallbacks %v)", w, r.Fallbacks)
		}
		if parallel.RegionsDispatched() == before {
			t.Errorf("workers=%d: the solve dispatched no region", w)
		}
		if ref == nil {
			ref = r.T
		} else if !bitIdentical(ref, r.T) {
			t.Errorf("workers=%d: field differs bitwise from workers=2 reference (rel %g)", w, relDiff(ref, r.T))
		}
	}
}

// TestEquivalenceTransient: a multi-step backward-Euler integration
// matches the serial path within 1e-12 relative and is bitwise
// deterministic across worker counts.
func TestEquivalenceTransient(t *testing.T) {
	rng := &eqRNG{s: 0x7145}
	p := randomProblem(t, rng, 12, 10, 12) // 1440 cells, 2 reduction chunks
	init := make([]float64, p.Grid.NumCells())
	for c := range init {
		init[c] = 300 + 20*rng.float()
	}
	run := func(workers int) []float64 {
		tr, err := NewTransient(p, init, Options{Tol: 1e-13, MaxIter: 100000, Precond: ZLine, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		out, err := tr.Run(5, 2e-4)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), out...)
	}
	ser := run(1)
	par := run(4)
	if d := relDiff(ser, par); d > 1e-12 {
		t.Errorf("transient serial vs parallel rel diff %g > 1e-12", d)
	}
	if !bitIdentical(par, run(4)) {
		t.Error("transient parallel run not reproducible")
	}
	if !bitIdentical(par, run(2)) {
		t.Error("transient field differs across worker counts")
	}
}

// refReduce replicates the deterministic reduction the kernels
// promise: a single index-order accumulator at workers=1, and
// chunk-ordered partial sums at workers ≥ 2.
func refReduce(n, workers int, f func(c int) float64) float64 {
	if workers <= 1 {
		sum := 0.0
		for c := 0; c < n; c++ {
			sum += f(c)
		}
		return sum
	}
	total := 0.0
	for s := 0; s < n; s += parallel.Grain {
		e := s + parallel.Grain
		if e > n {
			e = n
		}
		part := 0.0
		for c := s; c < e; c++ {
			part += f(c)
		}
		total += part
	}
	return total
}

// TestEquivalenceFusedKernels pins each fused kernel bitwise against
// the unfused two-pass sequence it replaced: applyDot vs apply+dot,
// residual vs apply+subtract+norm, updateNorm vs update+norm, and
// applyDirDot vs a materialized direction update followed by
// apply+dot. This is the direct statement of the fusion contract —
// fusing passes must not change a single bit — checked at the exact
// serial path and at two chunked worker counts.
func TestEquivalenceFusedKernels(t *testing.T) {
	rng := &eqRNG{s: 0xF05ED}
	p := randomProblem(t, rng, 15, 11, 13) // 2145 cells, 3 reduction chunks
	op := assemble(p)
	op.ensureStencil()
	n := len(op.b)
	zv := mgRandVec(rng, n)
	pv := mgRandVec(rng, n)
	xv := mgRandVec(rng, n)
	const beta, alpha = 0.37, 1.13

	for _, w := range []int{1, 4, 8} {
		kr := testKern(t, w, n)

		// applyDot vs apply + dot.
		ap := make([]float64, n)
		got := kr.applyDot(op, pv, ap)
		apRef := make([]float64, n)
		kr.apply(op, pv, apRef)
		if !bitIdentical(ap, apRef) {
			t.Errorf("workers=%d: applyDot SpMV output differs from apply", w)
		}
		want := refReduce(n, w, func(c int) float64 { return pv[c] * apRef[c] })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: applyDot sum %x differs from unfused reference %x", w, math.Float64bits(got), math.Float64bits(want))
		}

		// residual vs apply + subtract + norm.
		r := make([]float64, n)
		rn := kr.residual(op, xv, op.b, r)
		rRef := make([]float64, n)
		kr.apply(op, xv, rRef)
		for c := range rRef {
			rRef[c] = op.b[c] - rRef[c]
		}
		if !bitIdentical(r, rRef) {
			t.Errorf("workers=%d: fused residual field differs from unfused", w)
		}
		wantN := math.Sqrt(refReduce(n, w, func(c int) float64 { return rRef[c] * rRef[c] }))
		if math.Float64bits(rn) != math.Float64bits(wantN) {
			t.Errorf("workers=%d: fused residual norm differs from unfused reference", w)
		}

		// updateNorm vs separate update passes + norm.
		x1 := append([]float64(nil), xv...)
		r1 := append([]float64(nil), rRef...)
		gotN := kr.updateNorm(x1, r1, pv, ap, alpha)
		x2 := append([]float64(nil), xv...)
		r2 := append([]float64(nil), rRef...)
		for c := 0; c < n; c++ {
			x2[c] += alpha * pv[c]
			r2[c] = r2[c] - alpha*ap[c]
		}
		if !bitIdentical(x1, x2) || !bitIdentical(r1, r2) {
			t.Errorf("workers=%d: fused update vectors differ from unfused", w)
		}
		wantN = math.Sqrt(refReduce(n, w, func(c int) float64 { return r2[c] * r2[c] }))
		if math.Float64bits(gotN) != math.Float64bits(wantN) {
			t.Errorf("workers=%d: fused update norm differs from unfused reference", w)
		}

		// applyDirDot vs materialized direction + apply + dot. The
		// fused kernel recomputes neighbor direction values as
		// z[nb]+β·p[nb] — the same expression that materialization
		// writes — so both the direction vector and the SpMV must
		// agree bitwise.
		pn := make([]float64, n)
		apd := make([]float64, n)
		gotD := kr.applyDirDot(op, zv, pv, pn, apd, beta)
		pnRef := make([]float64, n)
		for c := 0; c < n; c++ {
			pnRef[c] = zv[c] + beta*pv[c]
		}
		apdRef := make([]float64, n)
		kr.apply(op, pnRef, apdRef)
		if !bitIdentical(pn, pnRef) {
			t.Errorf("workers=%d: applyDirDot direction differs from materialized z+β·p", w)
		}
		if !bitIdentical(apd, apdRef) {
			t.Errorf("workers=%d: applyDirDot SpMV differs from apply on materialized direction", w)
		}
		wantD := refReduce(n, w, func(c int) float64 { return pnRef[c] * apdRef[c] })
		if math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Errorf("workers=%d: applyDirDot sum differs from unfused reference", w)
		}
	}
}

// thomasColumn is the oracle of the ZLine preconditioner in tier F:
// the per-column Thomas solve of one vertical cell column at stride
// sz. The elimination runs in float64 as columnFactors runs it and
// rounds each factor once to F; the forward and back sweeps run in F
// with z = (r + gzp·z_below)·(1/pivot), then z −= cpf·z_above. The
// production preconditioner factors once and sweeps plane by plane;
// TestEquivalenceZLinePlanes pins it to this bitwise.
func thomasColumn[F mgFloat](op *operator, r, z []float64, col int) {
	nz, sz := op.nz, op.sz
	cp, minv, d := make([]float64, nz), make([]float64, nz), make([]F, nz)
	for k := 0; k < nz; k++ {
		c := col + k*sz
		m := op.diag[c]
		if k > 0 {
			a := -op.gzp[c-sz]
			m -= a * cp[k-1]
		}
		cp[k] = -op.gzp[c] / m
		minv[k] = 1 / m
	}
	d[0] = F(r[col]) * F(minv[0])
	for k := 1; k < nz; k++ {
		c := col + k*sz
		d[k] = (F(r[c]) + F(op.gzp[c-sz])*d[k-1]) * F(minv[k])
	}
	for k := nz - 2; k >= 0; k-- {
		d[k] -= F(cp[k]) * d[k+1]
	}
	for k := range d {
		z[col+k*sz] = float64(d[k])
	}
}

// TestEquivalenceZLinePlanes pins the factored plane-sweep ZLine
// preconditioner of both precision tiers bitwise against the
// per-column Thomas oracle, on degenerate shapes (a single layer, a
// single row or column of columns, a single column), odd sizes, grids
// spanning several parallel column chunks, and a transient-augmented
// diagonal, at the serial path and three pool sizes. Each apply
// starts from a dirty z, as it does when a kern's work vectors are
// reused.
func TestEquivalenceZLinePlanes(t *testing.T) {
	rng := &eqRNG{s: 0x21E5}
	shapes := [][3]int{
		{40, 30, 1}, // nz=1: the forward multiply alone, 2 column chunks
		{1, 37, 9},  // nx=1
		{45, 1, 5},  // ny=1
		{1, 1, 13},  // one column
		{5, 7, 3},   // odd, single chunk
		{33, 31, 7}, // odd, 8 column chunks
	}
	for _, sh := range shapes {
		p := randomProblem(t, rng, sh[0], sh[1], sh[2])
		op := assemble(p)
		n := len(op.diag)
		// The augmented diagonal C/Δt + A of a backward-Euler step.
		aug := *op
		aug.diag = make([]float64, n)
		for c := range aug.diag {
			aug.diag[c] = op.diag[c] + p.Cv[c]*1e-12/2e-4
		}
		for _, sys := range []struct {
			name string
			op   *operator
		}{{"steady", op}, {"augmented", &aug}} {
			r := mgRandVec(rng, n)
			for _, prec := range []Precision{F64, F32} {
				want := make([]float64, n)
				for col := 0; col < sys.op.sz; col++ {
					if prec == F32 {
						thomasColumn[float32](sys.op, r, want, col)
					} else {
						thomasColumn[float64](sys.op, r, want, col)
					}
				}
				for _, w := range []int{1, 2, 3, 8} {
					kr := testKern(t, w, n)
					pc, err := makePreconditioner(sys.op, ZLine, prec, kr)
					if err != nil {
						t.Fatal(err)
					}
					got := mgRandVec(rng, n)
					for rep := 0; rep < 2; rep++ {
						pc.apply(r, got)
						if !bitIdentical(got, want) {
							t.Errorf("%v %s %s workers=%d apply %d: plane sweep differs from per-column Thomas", sh, sys.name, prec, w, rep)
						}
					}
				}
			}
		}
	}
}

// TestStencilMatchesSliceApply pins the structure-of-arrays stencil
// SpMV against the legacy slice-walking path bitwise — same operator,
// same input, both execution strategies.
func TestStencilMatchesSliceApply(t *testing.T) {
	rng := &eqRNG{s: 0x57E9C}
	for _, size := range [][3]int{{1, 1, 6}, {5, 1, 3}, {12, 10, 8}, {17, 13, 7}} {
		p := randomProblem(t, rng, size[0], size[1], size[2])
		op := assemble(p)
		n := len(op.b)
		x := mgRandVec(rng, n)
		yLegacy := make([]float64, n)
		op.applyRange(x, yLegacy, 0, n) // st == nil: slice path
		op.ensureStencil()
		ySt := make([]float64, n)
		op.applyRange(x, ySt, 0, n)
		if !bitIdentical(yLegacy, ySt) {
			t.Errorf("size %v: stencil SpMV differs bitwise from slice SpMV", size)
		}
	}
}

// TestEnergyBalanceRandomized: for random problems, the total
// boundary outflow under the solved field equals the total injected
// power — a global property that catches operator-assembly sign
// errors which temperature-only comparisons can miss.
func TestEnergyBalanceRandomized(t *testing.T) {
	rng := &eqRNG{s: 0xE6E26}
	for round := 0; round < 8; round++ {
		nx, ny, nz := 3+rng.intn(8), 3+rng.intn(8), 3+rng.intn(8)
		p := randomProblem(t, rng, nx, ny, nz)
		for _, workers := range []int{1, 4} {
			r, err := SolveSteady(p, Options{Tol: 1e-12, MaxIter: 100000, Precond: ZLine, Workers: workers})
			if err != nil {
				t.Fatalf("round %d workers %d: %v", round, workers, err)
			}
			out := 0.0
			for f := Face(0); f < numFaces; f++ {
				out += BoundaryFlux(p, r, f)
			}
			total := p.TotalSourcePower()
			// With fixed-T boundaries at different temperatures heat
			// can also flow between faces, but the NET outflow must
			// equal the injected power. Tolerance scales with the
			// gross boundary traffic, which bounds the cancellation.
			gross := math.Abs(total)
			for f := Face(0); f < numFaces; f++ {
				gross += math.Abs(BoundaryFlux(p, r, f))
			}
			if math.Abs(out-total) > 1e-7*gross+1e-9 {
				t.Errorf("round %d workers %d: net outflow %g W vs injected %g W (gross %g)", round, workers, out, total, gross)
			}
		}
	}
}
