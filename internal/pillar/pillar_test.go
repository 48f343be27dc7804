package pillar

import (
	"math"
	"runtime"
	"testing"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/parallel"
	"thermalscaffold/internal/stack"
)

func TestGeometryDefaults(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: 105 W/m/K at 100 nm × 100 nm.
	if k := g.EffectiveK(); math.Abs(k-105) > 1e-9 {
		t.Errorf("EffectiveK = %g, paper says 105", k)
	}
	if a := g.Area(); math.Abs(a-1e-14) > 1e-20 {
		t.Errorf("Area = %g", a)
	}
}

func TestGeometryValidateRejections(t *testing.T) {
	if err := (Geometry{FootprintSide: 0, KeepoutFactor: 1.5}).Validate(); err == nil {
		t.Error("zero footprint accepted")
	}
	if err := (Geometry{FootprintSide: 1e-7, KeepoutFactor: 0.5}).Validate(); err == nil {
		t.Error("keepout < 1 accepted")
	}
}

// TestEffectiveKSizeDependence: smaller pillars conduct less — the
// reason the paper does not shrink below 100 nm.
func TestEffectiveKSizeDependence(t *testing.T) {
	small := Geometry{FootprintSide: 36e-9, KeepoutFactor: 1.05}
	big := Geometry{FootprintSide: 1e-6, KeepoutFactor: 1.05}
	if small.EffectiveK() >= Default().EffectiveK() {
		t.Error("smaller pillar should conduct less")
	}
	if big.EffectiveK() <= Default().EffectiveK() {
		t.Error("bigger pillar should conduct more")
	}
}

// TestSpreadingLengthFig3: the thermal dielectric stretches the
// healing length by severalfold — the Fig. 3 mechanism — and both
// lengths are in the µm range Fig. 3 plots.
func TestSpreadingLengthFig3(t *testing.T) {
	const cov, kp = 0.10, 105.0
	ulk := SpreadingLength(stack.ConventionalBEOL(), 12, cov, kp, true)
	td := SpreadingLength(stack.ScaffoldedBEOL(), 12, cov, kp, true)
	if ulk <= 0 || td <= 0 {
		t.Fatalf("non-positive spreading lengths %g %g", ulk, td)
	}
	if ratio := td / ulk; ratio < 1.5 || ratio > 10 {
		t.Errorf("thermal dielectric spreading gain %gx out of range", ratio)
	}
	if ulk < 0.5e-6 || ulk > 10e-6 {
		t.Errorf("ultra-low-k spreading length %g m outside Fig. 3's few-µm range", ulk)
	}
	if td < 2e-6 || td > 40e-6 {
		t.Errorf("thermal-dielectric spreading length %g m outside Fig. 3's tens-of-µm range", td)
	}
}

func TestSpreadingLengthEdgeCases(t *testing.T) {
	if SpreadingLength(stack.ConventionalBEOL(), 12, 0, 105, true) != 0 {
		t.Error("zero coverage should give zero length")
	}
	if SpreadingLength(stack.ConventionalBEOL(), 0, 0.1, 105, true) != 0 {
		t.Error("zero tiers should give zero length")
	}
	// Denser pillars shorten the healing length (heat descends sooner).
	sparse := SpreadingLength(stack.ConventionalBEOL(), 12, 0.05, 105, true)
	dense := SpreadingLength(stack.ConventionalBEOL(), 12, 0.20, 105, true)
	if dense >= sparse {
		t.Error("denser pillars should shorten spreading length")
	}
}

func TestFinEfficiency(t *testing.T) {
	if finEfficiency(0, 1e-6) != 1 {
		t.Error("zero half-width should be perfectly coupled")
	}
	if finEfficiency(1e-6, 0) != 0 {
		t.Error("zero healing length should decouple")
	}
	if e := finEfficiency(1e-9, 1e-3); e < 0.999 {
		t.Errorf("tiny x should approach 1, got %g", e)
	}
	// Monotone decreasing in distance.
	prev := 1.0
	for d := 1e-6; d < 100e-6; d *= 2 {
		e := finEfficiency(d, 5e-6)
		if e > prev {
			t.Fatalf("efficiency not decreasing at d=%g", d)
		}
		prev = e
	}
}

// TestPlaceScaffoldTwelveTiers: the headline placement — 12 Gemmini
// tiers under 125 °C with a footprint penalty near the paper's 10 %.
func TestPlaceScaffoldTwelveTiers(t *testing.T) {
	p, err := Place(Request{
		Design: design.Gemmini(), Tiers: 12,
		Sink: heatsink.TwoPhase(), TTargetC: 125,
		BEOL: stack.ScaffoldedBEOL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible {
		t.Fatalf("12-tier scaffolding infeasible (T=%g°C)", p.TMaxC)
	}
	if p.TMaxC > 125.01 {
		t.Errorf("target missed: %g°C", p.TMaxC)
	}
	if p.FootprintPenalty < 0.03 || p.FootprintPenalty > 0.20 {
		t.Errorf("footprint penalty %.1f%%, paper reports 10%%", 100*p.FootprintPenalty)
	}
	if p.TotalPillars <= 0 {
		t.Error("no pillars placed")
	}
	// Hot units get denser pillars than cool memories.
	var arrayCov, llcCov float64
	for _, u := range p.Units {
		switch u.Unit {
		case "systolic-array":
			arrayCov = u.Coverage
		case "llc-6":
			llcCov = u.Coverage
		}
		if u.Pillars > 0 {
			wantPitch := math.Sqrt(unitArea(t, u.Unit) / float64(u.Pillars))
			if math.Abs(u.Pitch-wantPitch)/wantPitch > 1e-6 {
				t.Errorf("%s: pitch %g inconsistent with P_min %d", u.Unit, u.Pitch, u.Pillars)
			}
		}
	}
	if arrayCov <= llcCov {
		t.Errorf("array coverage %g should exceed LLC coverage %g", arrayCov, llcCov)
	}
}

func unitArea(t *testing.T, name string) float64 {
	t.Helper()
	u, err := design.Gemmini().Tier.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return u.Rect.Area()
}

// TestVerticalOnlyCostsMore: without the thermal dielectric, the same
// 12 tiers demand a much larger footprint (Table I: 34 % vs 10 %).
func TestVerticalOnlyCostsMore(t *testing.T) {
	scaf, err := Place(Request{
		Design: design.Gemmini(), Tiers: 12,
		Sink: heatsink.TwoPhase(), TTargetC: 125,
		BEOL: stack.ScaffoldedBEOL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vert, err := Place(Request{
		Design: design.Gemmini(), Tiers: 12,
		Sink: heatsink.TwoPhase(), TTargetC: 125,
		BEOL: stack.ConventionalBEOL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vert.Feasible {
		t.Fatalf("vertical-only 12 tiers infeasible (T=%g°C)", vert.TMaxC)
	}
	if ratio := vert.FootprintPenalty / scaf.FootprintPenalty; ratio < 1.8 {
		t.Errorf("vertical-only/scaffolding footprint ratio %.2f, paper reports ~3.4 (34%%/10%%)", ratio)
	}
}

// TestPlaceNoPillarsNeeded: few tiers need no pillars at all.
func TestPlaceNoPillarsNeeded(t *testing.T) {
	p, err := Place(Request{
		Design: design.Gemmini(), Tiers: 2,
		Sink: heatsink.TwoPhase(), TTargetC: 125,
		BEOL: stack.ConventionalBEOL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible || p.MeanCoverage != 0 || p.TotalPillars != 0 {
		t.Errorf("2 tiers should need nothing: %+v", p)
	}
}

// TestPlaceInfeasible: a hopeless target reports infeasible rather
// than erroring.
func TestPlaceInfeasible(t *testing.T) {
	p, err := Place(Request{
		Design: design.Gemmini(), Tiers: 12,
		Sink: heatsink.TwoPhase(), TTargetC: 112, // below what any coverage can reach
		BEOL: stack.ConventionalBEOL(), MaxCoverage: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Feasible {
		t.Errorf("112°C at 12 tiers with 5%% max coverage should be infeasible (T=%g)", p.TMaxC)
	}
}

func TestPlaceRequestValidation(t *testing.T) {
	if _, err := Place(Request{}); err == nil {
		t.Error("nil design accepted")
	}
	if _, err := Place(Request{Design: design.Gemmini(), Tiers: 0, Sink: heatsink.TwoPhase(), TTargetC: 125, BEOL: stack.ScaffoldedBEOL()}); err == nil {
		t.Error("zero tiers accepted")
	}
	if _, err := Place(Request{Design: design.Gemmini(), Tiers: 4, Sink: heatsink.TwoPhase(), TTargetC: 90, BEOL: stack.ScaffoldedBEOL()}); err == nil {
		t.Error("target below two-phase ambient accepted")
	}
	bad := Request{Design: design.Gemmini(), Tiers: 4, Sink: heatsink.TwoPhase(), TTargetC: 125, BEOL: stack.ScaffoldedBEOL(), Geometry: Geometry{FootprintSide: -1, KeepoutFactor: 2}}
	if _, err := Place(bad); err == nil {
		t.Error("bad geometry accepted")
	}
}

// TestPlaceDispatchesNoRegions: at two workers, the Table I placement
// BenchmarkPlaceScaffold12 times (12 tiers on 12×12, 10 656 cells)
// runs every solver region on the caller. Its vectors split into 11
// chunks and its finest multigrid level into 6, below the pool's
// dispatch threshold: waking a helper would cost more than the work
// it takes over.
func TestPlaceDispatchesNoRegions(t *testing.T) {
	// Place sizes its engine from GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := parallel.RegionsDispatched()
	if _, err := Place(scaffold12()); err != nil {
		t.Fatal(err)
	}
	if d := parallel.RegionsDispatched() - before; d != 0 {
		t.Errorf("placement dispatched %d regions at 2 workers, want 0", d)
	}
}
