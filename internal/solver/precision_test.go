package solver

import (
	"fmt"
	"math"
	"testing"
)

// TestPrecisionParseString round-trips the tier names and rejects
// unknowns.
func TestPrecisionParseString(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
	}{
		{"", F64}, {"f64", F64}, {"float64", F64},
		{"f32", F32}, {"float32", F32},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("String(): got %q, %q", F64, F32)
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Error("ParsePrecision accepted f16")
	}
}

// TestPrecisionF32Deterministic holds the worker-count contract for
// the f32 tier, per preconditioner: results are bitwise identical at
// every Workers ≥ 2 (the f32 sweeps contain no floating-point
// reductions; the outer PCG reductions are chunk-ordered), and the
// serial path differs only by the dot-product summation order —
// bounded at the same tolerance the f64 equivalence suite uses.
func TestPrecisionF32Deterministic(t *testing.T) {
	p := anisotropicStackProblem(t)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		t.Run(pc.String(), func(t *testing.T) {
			opts := Options{Tol: 1e-9, MaxIter: 100000, Precond: pc, Precision: F32}
			var serial, ref *Result
			for _, w := range []int{1, 2, 4, 8} {
				o := opts
				o.Workers = w
				r, err := SolveSteady(p, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				switch {
				case w == 1:
					serial = r
				case ref == nil:
					ref = r
					if d := relDiff(serial.T, r.T); d > 1e-11 {
						t.Errorf("workers=1 vs 2: relative difference %g > 1e-11", d)
					}
				default:
					if !bitIdentical(ref.T, r.T) {
						t.Errorf("workers=%d differs bitwise from workers=2", w)
					}
				}
			}
		})
	}
}

// TestPrecisionF32MatchesF64 pins the f32-preconditioned solution
// against the f64 tier: both converge the same float64 system to the
// same residual tolerance, so the fields must agree to that accuracy
// — the tier may change the iteration count, never the answer.
func TestPrecisionF32MatchesF64(t *testing.T) {
	p := anisotropicStackProblem(t)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		t.Run(pc.String(), func(t *testing.T) {
			opts := Options{Tol: 1e-9, MaxIter: 100000, Precond: pc, Workers: 1}
			r64, err := SolveSteady(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Precision = F32
			r32, err := SolveSteady(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(r64.T, r32.T); d > 1e-7 {
				t.Errorf("f32 vs f64 solution: relative difference %g > 1e-7", d)
			}
			t.Logf("%s: f64 %d iterations, f32 %d iterations", pc, r64.Iterations, r32.Iterations)
		})
	}
}

// TestPrecisionF32SymmetricPD checks the f32 V-cycle is still (to
// float32 rounding) a symmetric positive definite operator — PCG's
// precondition. The symmetry defect of the f64 cycle is ~1e-15
// relative; the f32 tier rounds every intermediate, so the bound
// scales to float32 epsilon.
func TestPrecisionF32SymmetricPD(t *testing.T) {
	p := anisotropicStackProblem(t)
	op := assemble(p)
	n := len(op.b)
	kr := testKern(t, 1, n)
	mg := newMultigridTier[float32](op, kr)

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
		if rel := math.Abs(uBv-vBu) / scale; rel > 1e-4 {
			t.Errorf("trial %d: f32 V-cycle far from symmetric: uᵀBv=%g vᵀBu=%g (rel %g)", trial, uBv, vBu, rel)
		}
		if uBu := dot(u, bu); uBu <= 0 {
			t.Errorf("trial %d: f32 V-cycle not positive definite: uᵀBu=%g", trial, uBu)
		}
	}
}

// TestMMSSteadySecondOrderF32 reruns the manufactured-solution order
// test with the f32 preconditioner tier: discretization error (≫ the
// 1e-9 solve tolerance at every tested n) must still shrink at second
// order — the tier must not leak into solution accuracy.
func TestMMSSteadySecondOrderF32(t *testing.T) {
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		t.Run(pc.String(), func(t *testing.T) {
			opts := Options{Tol: 1e-9, MaxIter: 100000, Precond: pc, Precision: F32}
			e8 := mmsSteadyError(t, 8, opts)
			e16 := mmsSteadyError(t, 16, opts)
			e32 := mmsSteadyError(t, 32, opts)
			p1 := math.Log2(e8 / e16)
			p2 := math.Log2(e16 / e32)
			t.Logf("f32 MMS steady errors: e8=%.3g e16=%.3g e32=%.3g, orders %.2f, %.2f", e8, e16, e32, p1, p2)
			for _, ord := range []float64{p1, p2} {
				if ord < 1.7 || ord > 2.4 {
					t.Errorf("observed spatial order %.2f outside [1.7, 2.4] (errors %g, %g, %g)", ord, e8, e16, e32)
				}
			}
		})
	}
}

// TestPrecisionF32CacheDistinct: the preconditioner cache must key on
// (scheme, precision) — a fallback-laddered or batched solve touching
// both tiers must not hand one tier the other's arrays.
func TestPrecisionF32CacheDistinct(t *testing.T) {
	p := anisotropicStackProblem(t)
	op := assemble(p)
	kr := testKern(t, 1, len(op.b))
	pcs := precondCache{}
	for _, prec := range []Precision{F64, F32} {
		if _, err := pcs.get(op, ZLine, prec, kr); err != nil {
			t.Fatal(err)
		}
	}
	if len(pcs) != 2 {
		t.Fatalf("cache holds %d entries after building both tiers of ZLine, want 2", len(pcs))
	}
	if _, err := pcs.get(op, ZLine, F32, kr); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 2 {
		t.Fatalf("repeat get grew the cache to %d entries", len(pcs))
	}
	if _, err := pcs.get(op, ZLine, Precision(99), kr); err == nil {
		t.Error("unknown precision accepted")
	}
}

// TestPrecisionF32Transient runs the f32 tier through the transient
// integrator (whose per-Δt preconditioner cache now keys on the tier
// too) and pins the field against the f64 tier at the solve
// tolerance.
func TestPrecisionF32Transient(t *testing.T) {
	p := uniformProblem(t, 10, 8, 6, 4.0)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 350
	}
	run := func(prec Precision) []float64 {
		pp := *p
		tr, err := NewTransient(&pp, init, Options{Tol: 1e-10, Precond: Multigrid, Precision: prec, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		out, err := tr.Run(5, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(F64)
	got := run(F32)
	if d := relDiff(want, got); d > 1e-8 {
		t.Errorf("f32 transient field: relative difference %g > 1e-8 vs f64", d)
	}
}

// TestPrecisionF32IterationPenaltyBounded: the rougher f32 M⁻¹ may
// cost extra iterations but must stay in the same ballpark — a tier
// that doubled the iteration count would never pay for its bandwidth
// savings.
func TestPrecisionF32IterationPenaltyBounded(t *testing.T) {
	p := anisotropicStackProblem(t)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		opts := Options{Tol: 1e-9, MaxIter: 100000, Precond: pc, Workers: 1}
		r64, err := SolveSteady(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Precision = F32
		r32, err := SolveSteady(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r32.Iterations > r64.Iterations*3/2+2 {
			t.Errorf("%s: f32 tier took %d iterations vs f64's %d (> 1.5× + 2)",
				pc, r32.Iterations, r64.Iterations)
		}
	}
}

// TestPrecisionBatchMixedTiers: SolveSteadyBatch shares one kern and
// one preconditioner cache across items — per-item tiers must still
// come out right (checked via the per-item results matching
// independent solves at the tolerance). Batch currently carries one
// Options for all items, so this just smoke-tests the f32 batch path.
func TestPrecisionF32Batch(t *testing.T) {
	p := anisotropicStackProblem(t)
	qs := make([][]float64, 3)
	for i := range qs {
		q := make([]float64, len(p.Q))
		scale := 0.5 + 0.25*float64(i)
		for c := range q {
			q[c] = p.Q[c] * scale
		}
		qs[i] = q
	}
	opts := Options{Tol: 1e-9, MaxIter: 100000, Precond: Multigrid, Precision: F32, Workers: 2}
	rs, err := SolveSteadyBatch(p, qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		cp := *p
		cp.Q = qs[i]
		ind, err := SolveSteady(&cp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(ind.T, r.T) {
			t.Errorf("item %d: f32 batched solve differs bitwise from independent solve", i)
		}
	}
}

func init() {
	// Guard against accidental reordering of the enum: specio, the
	// serve cache keys, and the CLI flags all serialize these names.
	for _, c := range []struct {
		p    Precision
		name string
	}{{F64, "f64"}, {F32, "f32"}} {
		if c.p.String() != c.name {
			panic(fmt.Sprintf("precision enum drift: %d → %q", int(c.p), c.p))
		}
	}
}
