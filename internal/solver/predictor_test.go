package solver_test

import (
	"fmt"
	"math"
	"testing"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// TestTransientPredictorExampleTrace pins the transient predictor's
// payoff and accuracy on the service's example trace
// (specio.ExampleTrace: 60 multigrid steps in three segments). At
// Workers 1 and 3 the stream takes at most 95 PCG iterations — 124
// when every step started from Tⁿ — and every checkpoint field stays
// within 2.5e-7 K of the same trace solved to tol 1e-13, the accuracy
// the Tⁿ start reached.
func TestTransientPredictorExampleTrace(t *testing.T) {
	te, err := specio.BuildTrace(specio.ExampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	base := te.Base
	for _, w := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			run := func(tol float64) ([][]float64, int64) {
				tel := telemetry.New()
				o := solver.Options{Tol: tol, MaxIter: base.MaxIter, Precond: base.Precond, Precision: base.Precision, Workers: w, Telemetry: tel}
				var fields [][]float64
				_, err := solver.SolveTrace(base.Problem, base.InitialField(), te.Segments, o, solver.TraceOptions{
					OnCheckpoint: func(cp *solver.TraceCheckpoint) error {
						fields = append(fields, cp.T)
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return fields, tel.Counter(telemetry.CounterIterations)
			}
			got, iters := run(base.Tol)
			ref, _ := run(1e-13)
			t.Logf("%d PCG iterations at tol %g", iters, base.Tol)
			if iters > 95 {
				t.Errorf("example trace took %d PCG iterations, want ≤ 95", iters)
			}
			for k := range got {
				worst := 0.0
				for c := range got[k] {
					worst = math.Max(worst, math.Abs(got[k][c]-ref[k][c]))
				}
				if worst > 2.5e-7 {
					t.Errorf("checkpoint %d is %.3g K off the tol-1e-13 field, want ≤ 2.5e-7 K", k+1, worst)
				}
			}
		})
	}
}
