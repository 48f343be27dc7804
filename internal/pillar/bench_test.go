package pillar

import (
	"testing"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/parallel"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
)

// scaffold12 is the Table I placement the benchmark times: Gemmini at
// 12 tiers on the paper flow's 12×12 grid.
func scaffold12() Request {
	return Request{
		Design: design.Gemmini(), Tiers: 12,
		Sink: heatsink.TwoPhase(), TTargetC: 125,
		BEOL: stack.ScaffoldedBEOL(), NX: 12, NY: 12,
	}
}

// BenchmarkPlaceScaffold12 times one Table I placement and reports
// dispatches/op, the solver regions that woke helper goroutines: the
// paper flow's grids are too small to pay for a wake-up, so it reads 0
// (TestPlaceDispatchesNoRegions pins that at two workers). solves/op
// and iters/op count its thermal solves and their PCG iterations
// (11 and 34), from a collector that keeps every trace, as a traced
// benchmark run does.
func BenchmarkPlaceScaffold12(b *testing.B) {
	req := scaffold12()
	tel := telemetry.New()
	tel.SetMaxTraces(0)
	req.Telemetry = tel
	b.ReportAllocs()
	before := parallel.RegionsDispatched()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := func(v int64) float64 { return float64(v) / float64(b.N) }
	b.ReportMetric(perOp(parallel.RegionsDispatched()-before), "dispatches/op")
	b.ReportMetric(perOp(tel.Counter(telemetry.CounterSolves)), "solves/op")
	b.ReportMetric(perOp(tel.Counter(telemetry.CounterIterations)), "iters/op")
}

// BenchmarkPlacementLoop times the placement-style candidate sweep:
// K candidate power scenarios evaluated against one fixed stack
// geometry. "percandidate" is the pre-batch pattern — every candidate
// pays operator assembly, a fresh multigrid hierarchy, and its own
// worker pool. "batched" is SolveSteadyBatch: one operator, one
// hierarchy, one pool, K right-hand sides. The fields are bitwise
// identical between the two paths (pinned by the solver equivalence
// suite); only the cost differs.
func BenchmarkPlacementLoop(b *testing.B) {
	d := design.Gemmini()
	spec := &stack.Spec{
		DieW: d.Tier.Die.W, DieH: d.Tier.Die.H,
		Tiers: 12, NX: 16, NY: 16,
		PowerMaps:     [][]float64{d.Tier.PowerMap(16, 16)},
		BEOL:          stack.ScaffoldedBEOL(),
		PillarK:       Default().EffectiveK(),
		Sink:          heatsink.TwoPhase(),
		MemoryPerTier: true,
	}
	p, _, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	qs := make([][]float64, k)
	for i := range qs {
		q := make([]float64, len(p.Q))
		scale := 0.6 + 0.1*float64(i) // candidate power scenarios
		for c := range q {
			q[c] = p.Q[c] * scale
		}
		qs[i] = q
	}
	opts := solver.Options{Tol: 1e-7, MaxIter: 80000, Precond: solver.Multigrid}

	b.Run("percandidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				cp := *p
				cp.Q = q
				if _, err := solver.SolveSteady(&cp, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solver.SolveSteadyBatch(p, qs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSpreadingLength(b *testing.B) {
	beol := stack.ScaffoldedBEOL()
	for i := 0; i < b.N; i++ {
		SpreadingLength(beol, 12, 0.1, 105, true)
	}
}
