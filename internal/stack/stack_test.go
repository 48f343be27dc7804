package stack

import (
	"math"
	"testing"
	"testing/quick"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/telemetry"
	"thermalscaffold/internal/units"
)

const testNX, testNY = 16, 16

// gemminiSpec builds a Gemmini stack spec at test resolution.
func gemminiSpec(tiers int, beol BEOLProps, coverage float64) *Spec {
	g := design.Gemmini()
	pm := g.Tier.PowerMap(testNX, testNY)
	spec := &Spec{
		DieW: g.Tier.Die.W, DieH: g.Tier.Die.H,
		Tiers: tiers, NX: testNX, NY: testNY,
		PowerMaps:     [][]float64{pm},
		BEOL:          beol,
		Sink:          heatsink.TwoPhase(),
		MemoryPerTier: true,
	}
	if coverage > 0 {
		pf := NewPillarField(testNX, testNY)
		for i := range pf.Coverage {
			pf.Coverage[i] = coverage
		}
		spec.Pillars = pf
	}
	return spec
}

func solveSpec(t *testing.T, s *Spec) *Result {
	t.Helper()
	r, err := s.Solve(solver.Options{Tol: 1e-7, MaxIter: 60000})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBEOLPropsValidate(t *testing.T) {
	for _, b := range []BEOLProps{ConventionalBEOL(), ScaffoldedBEOL(), PaperBEOL(true), PaperBEOL(false)} {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: %v", b, err)
		}
	}
	if err := (BEOLProps{LowerKVert: -1, LowerKLat: 1, UpperKVert: 1, UpperKLat: 1}).Validate(); err == nil {
		t.Error("negative conductivity accepted")
	}
	// The scaffolded upper group must dwarf the conventional one.
	if ScaffoldedBEOL().UpperKVert < 3*ConventionalBEOL().UpperKVert {
		t.Error("scaffolded BEOL not meaningfully better vertically")
	}
	if ScaffoldedBEOL().UpperKLat < 5*ConventionalBEOL().UpperKLat {
		t.Error("scaffolded BEOL not meaningfully better laterally")
	}
}

func TestBuildRejections(t *testing.T) {
	good := gemminiSpec(2, ConventionalBEOL(), 0)
	if _, _, err := good.Build(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := *good
	bad.DieW = 0
	if _, _, err := bad.Build(); err == nil {
		t.Error("zero die accepted")
	}
	bad = *good
	bad.Tiers = 0
	if _, _, err := bad.Build(); err == nil {
		t.Error("zero tiers accepted")
	}
	bad = *good
	bad.NX = 0
	if _, _, err := bad.Build(); err == nil {
		t.Error("zero resolution accepted")
	}
	bad = *good
	bad.PowerMaps = [][]float64{good.PowerMaps[0], good.PowerMaps[0], good.PowerMaps[0]}
	if _, _, err := bad.Build(); err == nil {
		t.Error("3 power maps for 2 tiers accepted")
	}
	bad = *good
	bad.PowerMaps = [][]float64{good.PowerMaps[0][:5]}
	if _, _, err := bad.Build(); err == nil {
		t.Error("short power map accepted")
	}
	bad = *good
	bad.Pillars = NewPillarField(3, 3)
	if _, _, err := bad.Build(); err == nil {
		t.Error("mismatched pillar field accepted")
	}
	bad = *good
	pf := NewPillarField(testNX, testNY)
	pf.Coverage[0] = 1.5
	bad.Pillars = pf
	if _, _, err := bad.Build(); err == nil {
		t.Error("coverage > 1 accepted")
	}
	bad = *good
	bad.BEOL = BEOLProps{}
	if _, _, err := bad.Build(); err == nil {
		t.Error("zero BEOL accepted")
	}
	bad = *good
	bad.Sink = heatsink.Model{Name: "broken"}
	if _, _, err := bad.Build(); err == nil {
		t.Error("invalid sink accepted")
	}
}

func TestPillarField(t *testing.T) {
	pf := NewPillarField(4, 4)
	if pf.Mean() != 0 {
		t.Error("fresh field not zero")
	}
	for i := range pf.Coverage {
		pf.Coverage[i] = 0.25
	}
	if math.Abs(pf.Mean()-0.25) > 1e-12 {
		t.Errorf("mean = %g", pf.Mean())
	}
	if err := pf.Validate(); err != nil {
		t.Error(err)
	}
	if (&PillarField{NX: 2, NY: 2, Coverage: []float64{0}}).Validate() == nil {
		t.Error("short coverage accepted")
	}
	if (&PillarField{}).Mean() != 0 {
		t.Error("empty field mean not zero")
	}
}

// TestTierMonotonicity: stacking more tiers raises the peak.
func TestTierMonotonicity(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		r := solveSpec(t, gemminiSpec(n, ConventionalBEOL(), 0))
		if r.MaxT() <= prev {
			t.Fatalf("N=%d: peak %g not above previous %g", n, r.MaxT(), prev)
		}
		prev = r.MaxT()
	}
}

// TestPaperAnchor125C: the headline — conventional 3D thermal
// supports only ~3-4 Gemmini tiers under 125 °C, while scaffolding
// with ~10 % pillar coverage supports 12 (Fig. 9, Observation 1).
func TestPaperAnchor125C(t *testing.T) {
	limit := units.CelsiusToKelvin(125)
	conv4 := solveSpec(t, gemminiSpec(4, ConventionalBEOL(), 0))
	if conv4.MaxT() > limit {
		t.Errorf("conventional N=4 already over 125°C: %s", units.FormatTemp(conv4.MaxT()))
	}
	conv6 := solveSpec(t, gemminiSpec(6, ConventionalBEOL(), 0))
	if conv6.MaxT() < limit {
		t.Errorf("conventional N=6 should exceed 125°C: %s", units.FormatTemp(conv6.MaxT()))
	}
	scaf12 := solveSpec(t, gemminiSpec(12, ScaffoldedBEOL(), 0.10))
	if scaf12.MaxT() > limit {
		t.Errorf("scaffolded N=12 @10%% coverage over 125°C: %s", units.FormatTemp(scaf12.MaxT()))
	}
}

// TestUnscaffolded12TiersIsCatastrophic: without cooling structures,
// 12 tiers run away (paper: ≥353 °C at iso-footprint/delay).
func TestUnscaffolded12TiersIsCatastrophic(t *testing.T) {
	r := solveSpec(t, gemminiSpec(12, ConventionalBEOL(), 0))
	if got := units.KelvinToCelsius(r.MaxT()); got < 250 {
		t.Errorf("12 unscaffolded tiers at %g°C, expected thermal runaway (paper: 353°C)", got)
	}
}

// TestPillarCoverageMonotone: more pillar coverage, cooler chip.
func TestPillarCoverageMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, cov := range []float64{0, 0.05, 0.10, 0.20} {
		r := solveSpec(t, gemminiSpec(8, ScaffoldedBEOL(), cov))
		if r.MaxT() >= prev {
			t.Fatalf("coverage %g did not cool (%g vs %g)", cov, r.MaxT(), prev)
		}
		prev = r.MaxT()
	}
}

// TestThermalDielectricAlone: swapping the upper dielectric without
// pillars helps only modestly — the combination is what matters
// (scaffold = dielectric × pillars).
func TestThermalDielectricAlone(t *testing.T) {
	conv := solveSpec(t, gemminiSpec(12, ConventionalBEOL(), 0))
	tdOnly := solveSpec(t, gemminiSpec(12, ScaffoldedBEOL(), 0))
	both := solveSpec(t, gemminiSpec(12, ScaffoldedBEOL(), 0.10))
	if tdOnly.MaxT() >= conv.MaxT() {
		t.Error("thermal dielectric alone should not hurt")
	}
	riseTD := tdOnly.MaxT() - conv.Sink().Ambient()
	riseBoth := both.MaxT() - conv.Sink().Ambient()
	if riseBoth > 0.5*riseTD {
		t.Errorf("pillars+dielectric rise %g K not far below dielectric-only %g K", riseBoth, riseTD)
	}
}

// TestTopTierHottest: heat flows down to the sink, so the top tier
// runs hottest (Fig. 1's T_j at the top).
func TestTopTierHottest(t *testing.T) {
	r := solveSpec(t, gemminiSpec(6, ConventionalBEOL(), 0))
	for tier := 1; tier < 6; tier++ {
		if r.TierMaxT(tier) <= r.TierMaxT(tier-1) {
			t.Fatalf("tier %d (%g) not hotter than tier %d (%g)",
				tier, r.TierMaxT(tier), tier-1, r.TierMaxT(tier-1))
		}
	}
	if r.TierMaxT(5) != r.MaxT() {
		t.Error("global peak should be in the top tier")
	}
}

// TestMemoryPerTierAddsResistance: the interleaved memory sub-layer
// raises the peak at equal power.
func TestMemoryPerTierAddsResistance(t *testing.T) {
	with := gemminiSpec(8, ConventionalBEOL(), 0)
	without := gemminiSpec(8, ConventionalBEOL(), 0)
	without.MemoryPerTier = false
	rWith := solveSpec(t, with)
	rWithout := solveSpec(t, without)
	if rWith.MaxT() <= rWithout.MaxT() {
		t.Errorf("memory sub-layer did not add resistance: %g vs %g", rWith.MaxT(), rWithout.MaxT())
	}
}

// TestExtraBEOLKVertCools: the dummy-fill conductivity boost cools
// the stack (conventional flow mechanism).
func TestExtraBEOLKVertCools(t *testing.T) {
	base := gemminiSpec(8, ConventionalBEOL(), 0)
	boosted := gemminiSpec(8, ConventionalBEOL(), 0)
	boosted.ExtraBEOLKVert = 3
	rb := solveSpec(t, base)
	rx := solveSpec(t, boosted)
	if rx.MaxT() >= rb.MaxT() {
		t.Error("fill boost did not cool")
	}
}

// TestTotalFlux: replicated map gives N × per-tier mean flux.
func TestTotalFlux(t *testing.T) {
	g := design.Gemmini()
	s := gemminiSpec(12, ConventionalBEOL(), 0)
	want := 12 * g.Tier.MeanPowerDensity()
	got := s.TotalFlux()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("flux %g, want %g", got, want)
	}
	// Per-tier maps: scale one tier's map.
	pm := g.Tier.PowerMap(testNX, testNY)
	half := make([]float64, len(pm))
	for i := range half {
		half[i] = pm[i] / 2
	}
	s2 := gemminiSpec(2, ConventionalBEOL(), 0)
	s2.PowerMaps = [][]float64{pm, half}
	want2 := 1.5 * g.Tier.MeanPowerDensity()
	if got2 := s2.TotalFlux(); math.Abs(got2-want2)/want2 > 0.02 {
		t.Errorf("per-tier flux %g, want %g", got2, want2)
	}
}

// TestSchedulingDirection: assigning the high-power task to the tier
// nearest the sink cools the stack versus the reverse — the
// mechanism exploited by thermal-aware scheduling (Sec. III-B).
func TestSchedulingDirection(t *testing.T) {
	g := design.Gemmini()
	pm := g.Tier.PowerMap(testNX, testNY)
	hot := pm
	cold := make([]float64, len(pm))
	for i := range cold {
		cold[i] = pm[i] * 0.2
	}
	mk := func(maps [][]float64) *Spec {
		s := gemminiSpec(4, ConventionalBEOL(), 0)
		s.PowerMaps = maps
		return s
	}
	// Bottom tier (index 0) is nearest the sink.
	goodOrder := solveSpec(t, mk([][]float64{hot, hot, cold, cold}))
	badOrder := solveSpec(t, mk([][]float64{cold, cold, hot, hot}))
	if goodOrder.MaxT() >= badOrder.MaxT() {
		t.Errorf("hot-near-sink (%g) should beat hot-far (%g)", goodOrder.MaxT(), badOrder.MaxT())
	}
}

// TestStackLinearityQuick: the stack problem is linear — scaling the
// power map scales the rise over ambient (testing/quick over random
// scale factors).
func TestStackLinearityQuick(t *testing.T) {
	base := gemminiSpec(4, ConventionalBEOL(), 0)
	rBase := solveSpec(t, base)
	amb := base.Sink.Ambient()
	riseBase := rBase.MaxT() - amb
	f := func(raw float64) bool {
		alpha := 0.2 + math.Mod(math.Abs(raw), 3)
		s := gemminiSpec(4, ConventionalBEOL(), 0)
		pm := make([]float64, len(s.PowerMaps[0]))
		for i, q := range s.PowerMaps[0] {
			pm[i] = q * alpha
		}
		s.PowerMaps = [][]float64{pm}
		r, err := s.Solve(solver.Options{Tol: 1e-9, MaxIter: 60000})
		if err != nil {
			return false
		}
		return math.Abs((r.MaxT()-amb)-alpha*riseBase) < 1e-3*alpha*riseBase+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPillarFieldLabels: the BEOL label distinguishes the variants.
func TestBEOLLabels(t *testing.T) {
	if ConventionalBEOL().Label() != "ultra-low-k" {
		t.Error("conventional label wrong")
	}
	if ScaffoldedBEOL().Label() != "thermal-dielectric" {
		t.Error("scaffolded label wrong")
	}
}

// TestInterTierTBR: the paper's [34]-based claim — CMOS interface
// conductance near 10⁹ W/m²/K makes tier-boundary TBR negligible —
// holds in our stack; a pathological interface is not negligible.
func TestInterTierTBR(t *testing.T) {
	base := gemminiSpec(8, ConventionalBEOL(), 0)
	r0 := solveSpec(t, base)

	paper := gemminiSpec(8, ConventionalBEOL(), 0)
	paper.InterTierTBR = 1e-9 // [34]
	rp := solveSpec(t, paper)
	if d := rp.MaxT() - r0.MaxT(); d < 0 || d > 0.5 {
		t.Errorf("paper-grade TBR changed peak by %g K — should be negligible (<0.5)", d)
	}

	bad := gemminiSpec(8, ConventionalBEOL(), 0)
	bad.InterTierTBR = 1e-6 // pathological bonding interface
	rb := solveSpec(t, bad)
	if rb.MaxT()-r0.MaxT() < 5 {
		t.Errorf("pathological TBR only added %g K", rb.MaxT()-r0.MaxT())
	}
}

// TestZPlaneTBRValidation: malformed interface arrays are rejected.
func TestZPlaneTBRValidation(t *testing.T) {
	s := gemminiSpec(2, ConventionalBEOL(), 0)
	p, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.ZPlaneTBR = []float64{1e-9}
	if err := p.Validate(); err == nil {
		t.Error("short TBR array accepted")
	}
	p.ZPlaneTBR = make([]float64, p.Grid.NZ()-1)
	p.ZPlaneTBR[0] = -1
	if err := p.Validate(); err == nil {
		t.Error("negative TBR accepted")
	}
}

// TestSolveRunsRequestedPrecond: Solve runs the preconditioner it is
// given, as its telemetry trace records — the zero value is multigrid,
// and an explicit ZLine runs z-line, which needs more iterations on a
// chip stack's anisotropy.
func TestSolveRunsRequestedPrecond(t *testing.T) {
	spec := gemminiSpec(4, ScaffoldedBEOL(), 0.10)
	trace := func(pc solver.Preconditioner) telemetry.SolveTrace {
		t.Helper()
		tel := telemetry.New()
		opts := solver.Options{Tol: 1e-7, MaxIter: 60000, Workers: 1, Precond: pc, Telemetry: tel}
		if _, err := spec.Solve(opts); err != nil {
			t.Fatal(err)
		}
		solves := tel.Report("", nil).Solves
		if len(solves) != 1 {
			t.Fatalf("%d solve traces, want 1", len(solves))
		}
		return solves[0]
	}
	var zero solver.Preconditioner
	def, zl := trace(zero), trace(solver.ZLine)
	if def.Precond != "multigrid" {
		t.Errorf("zero-value precond ran %q, want multigrid", def.Precond)
	}
	if zl.Precond != "zline" {
		t.Errorf("explicit zline ran %q", zl.Precond)
	}
	if zl.Iterations <= def.Iterations {
		t.Errorf("zline took %d iterations, multigrid %d: want more", zl.Iterations, def.Iterations)
	}
}
