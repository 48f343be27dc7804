package power

import (
	"math"
	"testing"
)

func TestTracesValidate(t *testing.T) {
	tr := MatmulTrace()
	if err := tr.Validate(); err != nil {
		t.Errorf("%s: %v", tr.Name, err)
	}
	if tr.Period() <= 0 {
		t.Errorf("%s: non-positive period", tr.Name)
	}
	if err := (Trace{}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
	bad := Trace{Phases: []Phase{{Name: "x", Duration: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-duration phase accepted")
	}
	bad2 := Trace{Phases: []Phase{{Name: "x", Duration: 1, ArrayUtil: 1.5}}}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range utilization accepted")
	}
}

// TestMatmulTraceMatchesWorkload: the compute phase runs at the
// paper's simulated 72 % utilization, and bursts at 100 %.
func TestMatmulTraceMatchesWorkload(t *testing.T) {
	tr := MatmulTrace()
	var compute, burst *Phase
	for i := range tr.Phases {
		switch tr.Phases[i].Name {
		case "compute":
			compute = &tr.Phases[i]
		case "burst":
			burst = &tr.Phases[i]
		}
	}
	if compute == nil || burst == nil {
		t.Fatal("missing canonical phases")
	}
	if math.Abs(compute.ArrayUtil-0.72) > 1e-12 {
		t.Errorf("compute utilization %g, paper: 0.72", compute.ArrayUtil)
	}
	if burst.ArrayUtil != 1.0 {
		t.Errorf("burst utilization %g, want 1.0", burst.ArrayUtil)
	}
	if tr.PeakUtil() != 1.0 {
		t.Errorf("peak utilization %g", tr.PeakUtil())
	}
	if tr.MeanUtil() >= tr.PeakUtil() || tr.MeanUtil() <= 0 {
		t.Errorf("mean utilization %g out of order", tr.MeanUtil())
	}
}

// TestTracePower: peak power equals the worst phase and exceeds the
// mean; the paper's thermal design point is the peak.
func TestTracePower(t *testing.T) {
	a := Gemmini16()
	tr := MatmulTrace()
	peak := tr.PeakPower(a)
	mean := tr.MeanPower(a)
	if peak <= mean {
		t.Errorf("peak %g not above mean %g", peak, mean)
	}
	if math.Abs(peak-a.Power(1.0)) > 1e-15 {
		t.Errorf("peak power %g should be the 100%% burst (%g)", peak, a.Power(1.0))
	}
	if (Trace{}).MeanPower(a) != 0 || (Trace{}).MeanUtil() != 0 {
		t.Error("empty trace should have zero power")
	}
}
