package solver

import (
	"fmt"
	"math"
	"testing"
)

// mgRandVec fills a deterministic pseudo-random vector in [-1, 1).
func mgRandVec(rng *eqRNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.float()*2 - 1
	}
	return v
}

// TestMultigridSymmetricPD verifies the V-cycle preconditioner B is a
// symmetric positive definite operator — the precondition for CG
// correctness. Symmetry is checked weakly via random vectors:
// uᵀ(B·v) == vᵀ(B·u) to rounding, and xᵀ(B·x) > 0.
func TestMultigridSymmetricPD(t *testing.T) {
	p := anisotropicStackProblem(t)
	op := assemble(p)
	n := len(op.b)
	kr := testKern(t, 1, n)
	mg := newMultigridTier[float64](op, kr)

	rng := &eqRNG{s: 0x5ca1ab1e}
	bu := make([]float64, n)
	bv := make([]float64, n)
	for trial := 0; trial < 5; trial++ {
		u := mgRandVec(rng, n)
		v := mgRandVec(rng, n)
		mg.apply(u, bu)
		mg.apply(v, bv)
		uBv := dot(u, bv)
		vBu := dot(v, bu)
		scale := math.Abs(uBv) + math.Abs(vBu)
		if scale == 0 {
			t.Fatalf("trial %d: degenerate zero bilinear form", trial)
		}
		if rel := math.Abs(uBv-vBu) / scale; rel > 1e-12 {
			t.Errorf("trial %d: V-cycle not symmetric: uᵀBv=%g vᵀBu=%g (rel %g)", trial, uBv, vBu, rel)
		}
		if uBu := dot(u, bu); uBu <= 0 {
			t.Errorf("trial %d: V-cycle not positive definite: uᵀBu=%g", trial, uBu)
		}
	}
}

// TestMultigridMatchesZLine pins the MGCG solution against z-line
// PCG on the stiff anisotropic stack — both solve the same SPD system,
// so converged answers must agree.
func TestMultigridMatchesZLine(t *testing.T) {
	p := anisotropicStackProblem(t)
	opts := Options{Tol: 1e-11, MaxIter: 200000, Workers: 1}

	opts.Precond = Multigrid
	rm, err := SolveSteady(p, opts)
	if err != nil {
		t.Fatalf("multigrid: %v", err)
	}
	opts.Precond = ZLine
	rz, err := SolveSteady(p, opts)
	if err != nil {
		t.Fatalf("zline: %v", err)
	}
	if d := relDiff(rm.T, rz.T); d > 1e-10 {
		t.Errorf("multigrid vs zline: relative difference %g > 1e-10", d)
	}
}

// TestMultigridCycleBitwiseDeterministic applies one V-cycle at
// several worker counts and demands bitwise identical output. The
// cycle contains no floating-point reductions — only elementwise
// kernels, disjoint column solves, and fixed-order per-aggregate sums
// — so unlike the PCG dot products it is exactly reproducible even
// between serial and parallel execution.
func TestMultigridCycleBitwiseDeterministic(t *testing.T) {
	p := anisotropicStackProblem(t)
	op := assemble(p)
	n := len(op.b)
	rng := &eqRNG{s: 0xdec0de}
	r := mgRandVec(rng, n)

	var ref []float64
	for _, w := range []int{1, 2, 3, 4, 8} {
		kr := testKern(t, w, n)
		mg := newMultigridTier[float64](op, kr)
		z := make([]float64, n)
		mg.apply(r, z)
		if ref == nil {
			ref = z
			continue
		}
		if !bitIdentical(ref, z) {
			t.Errorf("workers=%d: V-cycle output differs bitwise from workers=1", w)
		}
	}
}

// TestMultigridIterationFlatness refines the 12-tier bench stack 2×
// and 4× in-plane and asserts the MGCG iteration count stays within a
// small constant band — the mesh-independence property that ZLine
// lacks (its count grows with resolution).
func TestMultigridIterationFlatness(t *testing.T) {
	if testing.Short() {
		t.Skip("large grids")
	}
	iters := map[int]int{}
	for _, n := range []int{16, 32, 64} {
		p := benchStack(t, n)
		r, err := SolveSteady(p, Options{Tol: 1e-7, Precond: Multigrid, Workers: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		iters[n] = r.Iterations
		t.Logf("n=%d: %d MGCG iterations (residual %.2e)", n, r.Iterations, r.Residual)
	}
	// Mesh independence: the 4×-refined grid may cost at most a few
	// extra iterations over the base grid, and the absolute count must
	// stay small (ZLine needs hundreds at n=64).
	if iters[64] > iters[16]+10 {
		t.Errorf("iterations grew with refinement: n=16→%d, n=64→%d", iters[16], iters[64])
	}
	if iters[64] > 40 {
		t.Errorf("n=64 took %d iterations; multigrid should stay well under 40", iters[64])
	}
}

// TestMultigridTransient exercises the preconditioner on the
// transient solver's diagonally augmented operator (capacitance /dt
// excess), which the operator-level coarsening must absorb exactly.
func TestMultigridTransient(t *testing.T) {
	p := anisotropicStackProblem(t)
	n := p.Grid.NumCells()
	for c := range p.Cv {
		p.Cv[c] = 1.66e6
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 300
	}
	var fields [2][]float64
	for fi, pc := range []Preconditioner{ZLine, Multigrid} {
		tr, err := NewTransient(p, init, Options{Tol: 1e-11, MaxIter: 200000, Workers: 1, Precond: pc})
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		for s := 0; s < 3; s++ {
			if err := tr.Step(1e-5); err != nil {
				t.Fatalf("%v step %d: %v", pc, s, err)
			}
		}
		fields[fi] = append([]float64(nil), tr.Field()...)
	}
	if d := relDiff(fields[0], fields[1]); d > 1e-10 {
		t.Errorf("transient multigrid vs zline: relative difference %g > 1e-10", d)
	}
}

// TestMultigridDegenerateShapes covers grids where an axis collapses
// early during coarsening (1×N, N×1, already-1×1) — the hierarchy
// must terminate and still solve correctly.
func TestMultigridDegenerateShapes(t *testing.T) {
	shapes := []struct{ nx, ny, nz int }{
		{1, 1, 12}, {1, 9, 6}, {9, 1, 6}, {3, 2, 4}, {2, 2, 2},
	}
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.nx, s.ny, s.nz), func(t *testing.T) {
			rng := &eqRNG{s: uint64(s.nx*100 + s.ny*10 + s.nz)}
			p := randomProblem(t, rng, s.nx, s.ny, s.nz)
			opts := Options{Tol: 1e-11, MaxIter: 50000, Workers: 1}
			opts.Precond = Multigrid
			rm, err := SolveSteady(p, opts)
			if err != nil {
				t.Fatalf("multigrid: %v", err)
			}
			opts.Precond = ZLine
			rz, err := SolveSteady(p, opts)
			if err != nil {
				t.Fatalf("zline: %v", err)
			}
			if d := relDiff(rm.T, rz.T); d > 1e-10 {
				t.Errorf("relative difference %g > 1e-10", d)
			}
		})
	}
}
