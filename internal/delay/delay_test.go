package delay

import (
	"math"
	"testing"
	"testing/quick"

	"thermalscaffold/internal/materials"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (±%g)", msg, got, want, tol)
	}
}

// TestSynthesisMinimumPeriods: Sec. III-C — synthesis does not
// complete below 0.7 ns (Rocket) and 0.9 ns (Gemmini).
func TestSynthesisMinimumPeriods(t *testing.T) {
	if _, err := RocketSynthesis().Area(0.65); err == nil {
		t.Error("Rocket synthesized below 0.7 ns")
	}
	if _, err := GemminiSynthesis().Area(0.85); err == nil {
		t.Error("Gemmini synthesized below 0.9 ns")
	}
	if _, err := RocketSynthesis().Area(0.7); err != nil {
		t.Errorf("Rocket at its minimum period: %v", err)
	}
}

// TestSynthesisRelaxationSavings: relaxing from the minimum to the
// operating target recovers ~10 % area.
func TestSynthesisRelaxationSavings(t *testing.T) {
	for _, s := range []SynthesisModel{RocketSynthesis(), GemminiSynthesis()} {
		aMin, err := s.Area(s.MinPeriodNs)
		if err != nil {
			t.Fatal(err)
		}
		aTgt, err := s.Area(s.TargetPeriodNs)
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - aTgt/aMin
		approx(t, saving, 0.10, 0.01, s.Name+" relaxation savings")
		// Further relaxation saturates.
		aFar, _ := s.Area(s.TargetPeriodNs * 2)
		if aFar < aTgt*0.99 {
			t.Errorf("%s: area keeps shrinking unboundedly (%g vs %g)", s.Name, aFar, aTgt)
		}
	}
}

func TestSynthesisAreaMonotone(t *testing.T) {
	s := GemminiSynthesis()
	prev := math.Inf(1)
	for p := s.MinPeriodNs; p <= 2.0; p += 0.05 {
		a, err := s.Area(p)
		if err != nil {
			t.Fatal(err)
		}
		if a > prev+1e-12 {
			t.Fatalf("area not non-increasing at %g ns", p)
		}
		prev = a
	}
}

func TestFrequency(t *testing.T) {
	approx(t, GemminiSynthesis().FrequencyGHz(), 1.0, 1e-12, "Gemmini 1 GHz")
	approx(t, RocketSynthesis().FrequencyGHz(), 1.25, 1e-12, "Rocket 1.25 GHz")
}

func TestPathProfileValidate(t *testing.T) {
	if err := DefaultPathProfile().Validate(); err != nil {
		t.Error(err)
	}
	if err := (PathProfile{0.5, 0.4, 0.2}).Validate(); err == nil {
		t.Error("non-unit sum accepted")
	}
	if err := (PathProfile{1.3, -0.3, 0}).Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
}

// TestTableIAnchors: the blockage model reproduces the paper's
// Table I delay penalties at their insertion fractions.
func TestTableIAnchors(t *testing.T) {
	// Thermal dummy vias: 78 % footprint → 17 % delay.
	approx(t, BlockagePenalty(0.78), 0.17, 0.005, "dummy vias @78%")
	// Vertical conduction only: 34 % footprint → 7 % delay.
	approx(t, BlockagePenalty(0.34), 0.07, 0.005, "vertical-only @34%")
	// Scaffolding: 10 % footprint → 3 % total delay (blockage + ε).
	approx(t, ScaffoldingPenalty(0.10).Total(), 0.03, 0.005, "scaffolding @10%")
}

func TestBlockagePenaltyShape(t *testing.T) {
	if BlockagePenalty(0) != 0 || BlockagePenalty(-1) != 0 {
		t.Error("no insertion must cost nothing")
	}
	prev := 0.0
	for f := 0.0; f <= 1.0; f += 0.02 {
		p := BlockagePenalty(f)
		if p < prev {
			t.Fatalf("penalty not monotone at f=%g", f)
		}
		prev = p
	}
	// Superlinearity: marginal cost grows.
	lo := BlockagePenalty(0.2) - BlockagePenalty(0.1)
	hi := BlockagePenalty(0.8) - BlockagePenalty(0.7)
	if hi <= lo {
		t.Error("blockage not superlinear")
	}
}

// TestDielectricPenaltyPaper: swapping ultra-low-k (ε=2) for the
// thermal dielectric (ε=4) costs ~1 % — the upper-layer share of the
// critical path.
func TestDielectricPenaltyPaper(t *testing.T) {
	p := DielectricPenalty(DefaultPathProfile(), materials.EpsUltraLowK, materials.EpsThermalDielectric)
	approx(t, p, 0.01, 1e-9, "ε penalty")
	if DielectricPenalty(DefaultPathProfile(), 2, 2) != 0 {
		t.Error("same dielectric should cost nothing")
	}
	if DielectricPenalty(DefaultPathProfile(), 4, 2) != 0 {
		t.Error("better dielectric should not give negative penalty")
	}
	if DielectricPenalty(DefaultPathProfile(), 0, 4) != 0 {
		t.Error("degenerate epsOld should return 0")
	}
}

func TestVerticalOnlyHasNoDielectricTerm(t *testing.T) {
	p := VerticalOnlyPenalty(0.34)
	if p.Dielectric != 0 || p.Fill != 0 {
		t.Errorf("vertical-only penalty has spurious terms: %+v", p)
	}
	approx(t, p.Total(), BlockagePenalty(0.34), 1e-12, "total")
}

func TestScaffoldingBeatsVerticalOnlyAtIsoCooling(t *testing.T) {
	// Observation 4a: thermal dielectric reduces penalties for 12
	// tiers from 34 %/7 % to 10 %/3 %.
	scaf := ScaffoldingPenalty(0.10).Total()
	vert := VerticalOnlyPenalty(0.34).Total()
	if scaf >= vert {
		t.Errorf("scaffolding %g should beat vertical-only %g", scaf, vert)
	}
	if ratio := vert / scaf; ratio < 2 {
		t.Errorf("delay-penalty ratio %gx, paper reports ~2.3x (7/3)", ratio)
	}
}

func TestDummyFillPenalty(t *testing.T) {
	p := DummyFillPenalty(0.3, 0.10)
	if p.Fill <= 0 || p.Blockage <= 0 {
		t.Errorf("missing penalty components: %+v", p)
	}
	approx(t, p.Fill, 0.008, 1e-9, "fill coupling")
	if DummyFillPenalty(0, 0).Total() != 0 {
		t.Error("no fill must cost nothing")
	}
}

func TestPenaltyNonNegativeQuick(t *testing.T) {
	f := func(raw float64) bool {
		fr := math.Mod(math.Abs(raw), 1)
		return ScaffoldingPenalty(fr).Total() >= 0 &&
			VerticalOnlyPenalty(fr).Total() >= 0 &&
			DummyFillPenalty(fr, fr/2).Total() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
