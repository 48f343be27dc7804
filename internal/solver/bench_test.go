package solver

import (
	"fmt"
	"testing"

	"thermalscaffold/internal/mesh"
)

// Parallel-kernel benchmark notes. Figures below are from the CI
// container (1 vCPU, Xeon @ 2.10 GHz, GOMAXPROCS=1) — on one CPU
// extra workers can only add scheduling overhead, so the workers=1
// column is the seed-parity regression baseline (it takes the exact
// legacy serial code path) and the multi-worker columns bound the
// pool overhead. On multi-core hardware the chunked SpMV and
// reductions scale near-linearly until memory bandwidth saturates,
// which is where the ≥2× target at 4 workers on ≥64×64×24 grids
// comes from.
//
//	BenchmarkSteadyZLine64Workers/workers=1    309 ms/op   (64×64×26, exact legacy path)
//	BenchmarkSteadyZLine64Workers/workers=4    328 ms/op   (1-CPU pool overhead ~6%)
//	BenchmarkSteadySOR64Workers/workers=1     4.38 s/op    (lexicographic sweep)
//	BenchmarkSteadySOR64Workers/workers=4     2.83 s/op    (red-black converges in fewer sweeps here even on 1 CPU)
//	BenchmarkOperatorApplyWorkers/workers=1   0.91 ms/op   (106k cells; flat to workers=8 on 1 CPU)
//	BenchmarkTransientStepWorkers/workers=1   38.1 ms/op   (workers=4: 41.5 ms — per-step pool spin-up included)
//
// Regenerate with:
//
//	go test -run xxx -bench 'Workers' -benchtime=3x ./internal/solver/

// benchStack builds a 12-tier chip-scale problem at the given
// in-plane resolution. It takes testing.TB so the multigrid
// iteration-flatness tests can reuse the exact acceptance grids.
func benchStack(b testing.TB, n int) *Problem {
	b.Helper()
	return tierStack(b, n, 12)
}

// tierStack is benchStack with the given tier count: an n×n×(2 + 3·tiers)
// grid, a two-cell handle under tiers of one silicon and two BEOL
// layers.
func tierStack(b testing.TB, n, tiers int) *Problem {
	b.Helper()
	zb := mesh.NewZLayerBuilder()
	zb.Add("handle", 10e-6, 2)
	for t := 0; t < tiers; t++ {
		zb.Add("si", 100e-9, 1)
		zb.Add("beol", 940e-9, 2)
	}
	xs := make([]float64, n+1)
	for i := range xs {
		xs[i] = 690e-6 * float64(i) / float64(n)
	}
	g, err := mesh.New(xs, xs, zb.Bounds())
	if err != nil {
		b.Fatal(err)
	}
	p := NewProblem(g)
	for k := 0; k < g.NZ(); k++ {
		kv, kl := 0.4, 5.6
		switch {
		case k < 2:
			kv, kl = 180, 180
		case (k-2)%3 == 0:
			kv, kl = 30, 65
		}
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				c := g.Index(i, j, k)
				p.SetAniso(c, kl, kv)
				p.Cv[c] = 1.66e6
				if k >= 2 && (k-2)%3 == 0 {
					p.Q[c] = 53e4 / 100e-9
				}
			}
		}
	}
	p.Bounds[ZMin] = ConvectiveBC(1e6, 373.15)
	return p
}

func BenchmarkSteadyZLine16(b *testing.B) {
	p := benchStack(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSteady(p, Options{Tol: 1e-7, Precond: ZLine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyZLine32(b *testing.B) {
	p := benchStack(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSteady(p, Options{Tol: 1e-7, Precond: ZLine}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyPrecond compares the two PCG preconditioners
// across in-plane resolutions on the 12-tier stack. Multigrid's
// iteration count is nearly mesh-independent (5→7 from n=16 to 64)
// while ZLine's grows with resolution (36→82), so the gap widens
// with grid size — the n=64/n=96 rows are the ≥3× acceptance
// measurement.
func BenchmarkSteadyPrecond(b *testing.B) {
	for _, n := range []int{16, 32, 64, 96} {
		p := benchStack(b, n)
		for _, pc := range []Preconditioner{ZLine, Multigrid} {
			b.Run(fmt.Sprintf("precond=%s/n=%d", pc, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := SolveSteady(p, Options{Tol: 1e-7, Precond: pc}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTransientStep(b *testing.B) {
	p := benchStack(b, 16)
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 373.15
	}
	tr, err := NewTransient(p, init, Options{Tol: 1e-7, Precond: ZLine})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperatorApply(b *testing.B) {
	p := benchStack(b, 32)
	op := assemble(p)
	x := make([]float64, len(op.b))
	y := make([]float64, len(op.b))
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.apply(x, y)
	}
}

// benchWorkerCounts is the sweep used by the *Workers benchmarks; on
// a multi-core machine the interesting comparison is workers=1 vs 4.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkSteadyZLine64Workers times the full steady solve on the
// 64×64×26-cell 12-tier stack (the ≥64×64×24 acceptance grid) across
// worker counts. workers=1 takes the exact legacy serial path and is
// the seed-parity baseline.
func BenchmarkSteadyZLine64Workers(b *testing.B) {
	p := benchStack(b, 64)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveSteady(p, Options{Tol: 1e-7, Precond: ZLine, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSteadyMG96Workers is the multigrid acceptance
// measurement: the full steady MGCG solve on the 96×96×38-cell
// 12-tier stack, per preconditioner precision tier, across worker
// counts. workers=1 f64 is the seed-parity baseline (bitwise pinned
// to the row-major textbook cycle by the equivalence suite); the
// workers=8/workers=1 ratio is the scaling figure recorded in
// BENCH_solver.json — on the 1-vCPU CI box it can only measure pool
// overhead, the multi-core ratio requires real cores.
func BenchmarkSteadyMG96Workers(b *testing.B) {
	p := benchStack(b, 96)
	for _, prec := range []Precision{F64, F32} {
		for _, w := range benchWorkerCounts {
			b.Run(fmt.Sprintf("precision=%s/workers=%d", prec, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := Options{Tol: 1e-7, Precond: Multigrid, Precision: prec, Workers: w}
					if _, err := SolveSteady(p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMGCyclePrecision isolates one V-cycle per tier on the
// n=96 stack — the pure bandwidth comparison behind the f32 tier
// (same sweeps, half the bytes), without PCG iteration-count effects.
func BenchmarkMGCyclePrecision(b *testing.B) {
	p := benchStack(b, 96)
	op := assemble(p)
	n := len(op.b)
	kr := testKern(b, 1, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%13) - 6
	}
	b.Run("precision=f64", func(b *testing.B) {
		mg := newMultigridTier[float64](op, kr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mg.apply(r, z)
		}
	})
	b.Run("precision=f32", func(b *testing.B) {
		mg := newMultigridTier[float32](op, kr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mg.apply(r, z)
		}
	})
}

// BenchmarkOperatorApplyWorkers isolates the chunked SpMV kernel —
// the single hottest loop of the PCG iteration.
func BenchmarkOperatorApplyWorkers(b *testing.B) {
	p := benchStack(b, 64)
	op := assemble(p)
	x := make([]float64, len(op.b))
	y := make([]float64, len(op.b))
	for i := range x {
		x[i] = float64(i % 7)
	}
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			kr := testKern(b, w, len(op.b))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kr.apply(op, x, y)
			}
		})
	}
}

// BenchmarkSteadyBatch compares K independent steady solves against
// one SolveSteadyBatch of the same K source fields on the 32×32
// 12-tier stack: the batch assembles the operator and builds the
// multigrid hierarchy once instead of K times. Results are bitwise
// identical (equivalence suite); only the setup cost differs.
func BenchmarkSteadyBatch(b *testing.B) {
	p := benchStack(b, 32)
	const k = 8
	qs := make([][]float64, k)
	for i := range qs {
		q := make([]float64, len(p.Q))
		scale := 0.6 + 0.1*float64(i)
		for c := range q {
			q[c] = p.Q[c] * scale
		}
		qs[i] = q
	}
	opts := Options{Tol: 1e-7, Precond: Multigrid}
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				cp := *p
				cp.Q = q
				if _, err := SolveSteady(&cp, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveSteadyBatch(p, qs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransientStepWorkers times one backward-Euler step (inner
// PCG solve) on the 32×32×26 stack across worker counts.
func BenchmarkTransientStepWorkers(b *testing.B) {
	p := benchStack(b, 32)
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 373.15
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tr, err := NewTransient(p, init, Options{Tol: 1e-7, Precond: ZLine, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.Step(1e-4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransientTrace times the trace-driven transient runner on
// the 16×16×38 stack across a workers × segments grid: one op/pool/
// preconditioner assembly amortized over the whole schedule, four
// steps per segment, with a hot/cool override alternation so every
// segment pays the SetSources rebuild. This is the transient
// worker-scaling row of BENCH_solver.json — the pinned pool means
// workers>1 no longer pays per-step spin-up (the historical
// BenchmarkTransientStepWorkers regression).
func BenchmarkTransientTrace(b *testing.B) {
	p := benchStack(b, 16)
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 373.15
	}
	hot := make([]float64, len(p.Q))
	for c := range hot {
		hot[c] = p.Q[c] * 2
	}
	for _, w := range []int{1, 2, 4} {
		for _, nseg := range []int{4, 16} {
			segs := make([]TraceSegment, nseg)
			for i := range segs {
				segs[i] = TraceSegment{Dt: 1e-4, Steps: 4}
				if i%2 == 1 {
					segs[i].Q = hot
				} else if i > 0 {
					segs[i].Q = p.Q
				}
			}
			b.Run(fmt.Sprintf("workers=%d/segments=%d", w, nseg), func(b *testing.B) {
				opts := Options{Tol: 1e-7, Precond: ZLine, Workers: w}
				for i := 0; i < b.N; i++ {
					if _, err := SolveTrace(p, init, segs, opts, TraceOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMGCycleShapes times one V-cycle (apply, transposes
// included) at Workers 1 on the shapes the benchmark workloads solve:
// the paper flow's 12×12×74 stack, the trace's 16×16×74 on its
// transient (C/Δt + A) operator, and the cold-family 32×32×14 in the
// f32 tier the service's cold-family traffic asks for.
func BenchmarkMGCycleShapes(b *testing.B) {
	shapes := []struct {
		name     string
		n, tiers int
		dt       float64
		prec     Precision
	}{
		{"12x12x74", 12, 24, 0, F64},
		{"16x16x74-transient", 16, 24, 1e-4, F64},
		{"32x32x14", 32, 4, 0, F32},
	}
	for _, s := range shapes {
		op := workloadOperator(b, s.n, s.tiers, s.dt)
		n := len(op.diag)
		r := make([]float64, n)
		z := make([]float64, n)
		for i := range r {
			r[i] = float64(i%13) - 6
		}
		b.Run(fmt.Sprintf("shape=%s/precision=%s", s.name, s.prec), func(b *testing.B) {
			kr := testKern(b, 1, n)
			var apply func(r, z []float64)
			if s.prec == F32 {
				apply = newMultigridTier[float32](op, kr).apply
			} else {
				apply = newMultigridTier[float64](op, kr).apply
			}
			apply(r, z) // warm: bench-json runs two cycles per sample
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(r, z)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
		})
	}
}

// BenchmarkSpMVShapes times one fused PCG SpMV (applyDirDot: direction
// update, A·p and pᵀAp in one sweep) at Workers 1 on the shapes the
// benchmark workloads solve: the paper flow's 12×12×74, the trace's
// 16×16×74 transient (C/Δt + A) operator, hot's 16×16×14 and the cold
// family's 32×32×14.
func BenchmarkSpMVShapes(b *testing.B) {
	shapes := []struct {
		name     string
		n, tiers int
		dt       float64
	}{
		{"12x12x74", 12, 24, 0},
		{"16x16x74-transient", 16, 24, 1e-4},
		{"16x16x14", 16, 4, 0},
		{"32x32x14", 32, 4, 0},
	}
	for _, s := range shapes {
		op := workloadOperator(b, s.n, s.tiers, s.dt)
		n := len(op.diag)
		z, p := make([]float64, n), make([]float64, n)
		pn, ap := make([]float64, n), make([]float64, n)
		for i := range z {
			z[i] = float64(i%13) - 6
			p[i] = float64(i%7) - 3
		}
		b.Run("shape="+s.name, func(b *testing.B) {
			kr := testKern(b, 1, n)
			kr.applyDirDot(op, z, p, pn, ap, 0.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kr.applyDirDot(op, z, p, pn, ap, 0.5)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
		})
	}
}
