package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestNilCollectorSafe: every method must be a no-op on nil, so call
// sites need no guards.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Add(CounterSolves, 1)
	if c.Counter(CounterSolves) != 0 {
		t.Fatal("nil counter non-zero")
	}
	c.Phase("x")()
	c.RecordSolve(SolveTrace{})
	c.SetMaxTraces(10)
	r := c.Report("tool", nil)
	if r == nil || len(r.Solves) != 0 {
		t.Fatalf("nil report: %+v", r)
	}
}

func TestCountersAndPhases(t *testing.T) {
	c := New()
	c.Add(CounterSolves, 2)
	c.Add(CounterSolves, 3)
	if got := c.Counter(CounterSolves); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	stop := c.Phase("setup")
	stop()
	c.Phase("setup")()
	c.Phase("solve")()
	r := c.Report("t", []string{"-x"})
	if len(r.Phases) != 2 {
		t.Fatalf("%d phases", len(r.Phases))
	}
	if r.Phases[0].Name != "setup" || r.Phases[0].Count != 2 {
		t.Fatalf("phase aggregation: %+v", r.Phases[0])
	}
	if r.Phases[1].Name != "solve" {
		t.Fatalf("phase order not first-seen: %+v", r.Phases)
	}
}

func TestTraceRetentionBound(t *testing.T) {
	c := New()
	c.SetMaxTraces(3)
	for i := 0; i < 10; i++ {
		c.RecordSolve(SolveTrace{Iterations: i})
	}
	r := c.Report("t", nil)
	if len(r.Solves) != 3 {
		t.Fatalf("%d traces retained, want 3", len(r.Solves))
	}
	if r.Counters["traces_dropped"] != 7 {
		t.Fatalf("traces_dropped = %d", r.Counters["traces_dropped"])
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	c := New()
	c.Add(CounterIterations, 41)
	c.RecordSolve(SolveTrace{Method: "pcg", Precond: "zline", Converged: true, Residuals: []Float{1, 0.5}})
	var buf bytes.Buffer
	if err := c.Report("thermsim", []string{"-spec", "s.json"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "thermsim" || back.Counters["iterations"] != 41 || len(back.Solves) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Solves[0].Precond != "zline" {
		t.Fatalf("trace: %+v", back.Solves[0])
	}
}

// TestNonFiniteResidualMarshals: a diverged solve's NaN/Inf residual
// must not make the whole -report write fail — encoding/json rejects
// non-finite float64, so Float marshals them as null.
func TestNonFiniteResidualMarshals(t *testing.T) {
	c := New()
	c.RecordSolve(SolveTrace{
		Method:    "pcg",
		Residual:  Float(math.NaN()),
		Residuals: []Float{1, Float(math.Inf(1)), Float(math.NaN())},
	})
	var buf bytes.Buffer
	if err := c.Report("t", nil).WriteJSON(&buf); err != nil {
		t.Fatalf("report with NaN residual failed to marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	tr := back.Solves[0]
	if !math.IsNaN(float64(tr.Residual)) {
		t.Fatalf("null did not round-trip to NaN: %v", tr.Residual)
	}
	if tr.Residuals[0] != 1 || !math.IsNaN(float64(tr.Residuals[1])) || !math.IsNaN(float64(tr.Residuals[2])) {
		t.Fatalf("residual history round trip: %v", tr.Residuals)
	}
}

// TestConcurrentUse: collectors take concurrent writes (the parallel
// sweeps record from multiple goroutines); run with -race.
func TestConcurrentUse(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add(CounterIterations, 1)
				c.Phase("p")()
				c.RecordSolve(SolveTrace{})
			}
		}()
	}
	wg.Wait()
	if got := c.Counter(CounterIterations); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}
