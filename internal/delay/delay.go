// Package delay models the timing side of the physical-design flows:
// synthesis period/area trade-offs and the delay penalties of the
// three cooling strategies (dielectric capacitance increase, routing
// blockage by inserted pillars or dummy vias, and fill coupling).
//
// The paper extracts these numbers from Synopsys DC synthesis and
// Cadence Innovus place-and-route runs that are unavailable here;
// the penalty model below reproduces the paper's published
// (insertion-fraction → delay-penalty) data points from Table I and
// Sec. IV exactly at its calibration anchors and interpolates
// smoothly between them.
package delay

import (
	"fmt"
	"math"

	"thermalscaffold/internal/materials"
)

// SynthesisModel captures the area-vs-target-period behaviour the
// paper reports in Sec. III-C: synthesis fails below a minimum
// period, and relaxing the target past that minimum saves ~10 % area
// (fewer buffers, smaller cells).
type SynthesisModel struct {
	Name string
	// MinPeriodNs is the smallest period synthesis completes at.
	MinPeriodNs float64
	// TargetPeriodNs is the chosen operating period (>= MinPeriodNs).
	TargetPeriodNs float64
	// AreaAtMinMm2 is the cell area at the minimum period.
	AreaAtMinMm2 float64
	// RelaxationSavings is the fractional area recovered by relaxing
	// from MinPeriodNs to TargetPeriodNs (paper: 10 %).
	RelaxationSavings float64
}

// RocketSynthesis returns the Rocket core synthesis behaviour:
// minimum period 0.7 ns, operated at 0.8 ns.
func RocketSynthesis() SynthesisModel {
	return SynthesisModel{Name: "Rocket", MinPeriodNs: 0.7, TargetPeriodNs: 0.8, AreaAtMinMm2: 0.53, RelaxationSavings: 0.10}
}

// GemminiSynthesis returns the Gemmini accelerator synthesis
// behaviour: minimum period 0.9 ns, operated at 1.0 ns.
func GemminiSynthesis() SynthesisModel {
	return SynthesisModel{Name: "Gemmini", MinPeriodNs: 0.9, TargetPeriodNs: 1.0, AreaAtMinMm2: 0.61, RelaxationSavings: 0.10}
}

// Area returns the synthesized cell area (mm²) at target period p
// (ns). Below the minimum period synthesis does not complete and an
// error is returned. Between the minimum and the relaxed target the
// area interpolates exponentially toward the relaxed value; past the
// relaxed target the savings saturate.
func (s SynthesisModel) Area(pNs float64) (float64, error) {
	if pNs < s.MinPeriodNs {
		return 0, fmt.Errorf("delay: %s synthesis does not complete below %.2f ns (asked %.2f)", s.Name, s.MinPeriodNs, pNs)
	}
	relaxed := s.AreaAtMinMm2 * (1 - s.RelaxationSavings)
	span := s.TargetPeriodNs - s.MinPeriodNs
	if span <= 0 {
		return relaxed, nil
	}
	t := (pNs - s.MinPeriodNs) / span
	frac := 1 - math.Exp(-3*t)
	scale := 1 - math.Exp(-3.0)
	return s.AreaAtMinMm2 - (s.AreaAtMinMm2-relaxed)*math.Min(frac/scale, 1), nil
}

// FrequencyGHz returns the operating frequency at the target period.
func (s SynthesisModel) FrequencyGHz() float64 { return 1 / s.TargetPeriodNs }

// PathProfile decomposes a design's critical path delay into logic,
// lower-layer (V0–M7) wire, and upper-layer (M8–M9) wire components.
// Fractions must sum to 1. The upper-layer fraction is small —
// global routes are a thin slice of a retimed critical path — which
// is why doubling the upper-layer dielectric constant costs only ~1 %
// of total delay.
type PathProfile struct {
	LogicFrac     float64
	LowerWireFrac float64
	UpperWireFrac float64
}

// DefaultPathProfile returns the decomposition calibrated to the
// paper's observed 3 % scaffolding delay penalty at 10 % footprint.
func DefaultPathProfile() PathProfile {
	return PathProfile{LogicFrac: 0.69, LowerWireFrac: 0.30, UpperWireFrac: 0.01}
}

// Validate checks the fractions.
func (p PathProfile) Validate() error {
	sum := p.LogicFrac + p.LowerWireFrac + p.UpperWireFrac
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("delay: path fractions sum to %g, want 1", sum)
	}
	if p.LogicFrac < 0 || p.LowerWireFrac < 0 || p.UpperWireFrac < 0 {
		return fmt.Errorf("delay: negative path fraction in %+v", p)
	}
	return nil
}

// Blockage penalty coefficients, calibrated to the paper's Table I
// anchors: 34 % insertion → 7 % delay (vertical-conduction-only
// pillars) and 78 % insertion → 17 % delay (thermal dummy vias),
// both without a dielectric term. See the package comment.
const (
	blockageLinear    = 0.1965
	blockageQuadratic = 0.0274
)

// BlockagePenalty returns the fractional delay increase caused by
// inserting opaque thermal structures (pillars or dummy vias)
// occupying fraction f of the floorplan: routing detours grow the
// lower-layer wirelength linearly with small insertions and
// superlinearly once congestion sets in.
func BlockagePenalty(f float64) float64 {
	if f <= 0 {
		return 0
	}
	return blockageLinear*f + blockageQuadratic*f*f
}

// DielectricPenalty returns the fractional delay increase from
// fabricating the upper BEOL layers with a dielectric of permittivity
// epsNew instead of epsOld: upper-layer wire delay scales with its
// capacitance, which scales with ε.
func DielectricPenalty(profile PathProfile, epsOld, epsNew float64) float64 {
	if epsOld <= 0 {
		return 0
	}
	r := epsNew/epsOld - 1
	if r < 0 {
		r = 0
	}
	return profile.UpperWireFrac * r
}

// Penalty aggregates the delay penalty of a cooling configuration.
type Penalty struct {
	Blockage   float64 // from inserted thermal structures
	Dielectric float64 // from the thermal dielectric's higher ε
	Fill       float64 // from dummy-fill coupling capacitance
}

// Total returns the combined fractional delay penalty.
func (p Penalty) Total() float64 { return p.Blockage + p.Dielectric + p.Fill }

// ScaffoldingPenalty returns the delay penalty of a scaffolded design
// with pillar insertion fraction f, using the thermal dielectric in
// the upper layers.
func ScaffoldingPenalty(f float64) Penalty {
	return Penalty{
		Blockage:   BlockagePenalty(f),
		Dielectric: DielectricPenalty(DefaultPathProfile(), materials.EpsUltraLowK, materials.EpsThermalDielectric),
	}
}

// VerticalOnlyPenalty returns the delay penalty of pillar insertion
// fraction f without the thermal dielectric.
func VerticalOnlyPenalty(f float64) Penalty {
	return Penalty{Blockage: BlockagePenalty(f)}
}

// FillCouplingCoefficient converts added dummy-fill metal density
// into delay penalty through increased coupling capacitance on
// signal wires (calibrated so the conventional flow's fill levels
// cost ~1-2 %).
const FillCouplingCoefficient = 0.08

// DummyFillPenalty returns the delay penalty of the conventional
// thermal-aware metallization flow: blockage from dummy-via insertion
// fraction f plus coupling from added fill density.
func DummyFillPenalty(f, addedFillDensity float64) Penalty {
	return Penalty{
		Blockage: BlockagePenalty(f),
		Fill:     FillCouplingCoefficient * addedFillDensity,
	}
}
