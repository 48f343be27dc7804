package experiments

import (
	"strings"
	"testing"

	"thermalscaffold/internal/core"
)

var quick = Options{Quick: true}

func TestFig4(t *testing.T) {
	r := Fig4()
	if !nearlyEqual(r.K160nm, 105.7, 0.02) {
		t.Errorf("K(160nm) = %g, paper anchor 105.7", r.K160nm)
	}
	if r.KLargeGrain < 500 {
		t.Errorf("K(1.9µm) = %g, below the paper's conservative 500", r.KLargeGrain)
	}
	if len(r.Curve.Points) < 50 {
		t.Errorf("curve too sparse: %d points", len(r.Curve.Points))
	}
	prev := 0.0
	for _, p := range r.Curve.Points {
		if p[1] < prev {
			t.Fatal("Fig. 4 curve not monotone in grain size")
		}
		prev = p[1]
	}
	if len(r.Anchors.Rows) != 3 {
		t.Errorf("expected 3 experimental films, got %d", len(r.Anchors.Rows))
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if r.PorosityForEps4 < 0.2 || r.PorosityForEps4 > 0.4 {
		t.Errorf("porosity for ε=4: %g, expected ~0.29", r.PorosityForEps4)
	}
	if len(r.Literature.Rows) < 3 {
		t.Error("literature table too short")
	}
	first := r.PorosityCurve.Points[0][1]
	last := r.PorosityCurve.Points[len(r.PorosityCurve.Points)-1][1]
	if first <= last {
		t.Error("porosity inset should fall from bulk ε to ~1")
	}
}

// TestFig3Spreading: the thermal dielectric multiplies the pillar's
// cooled radius — the 3 K reach grows severalfold.
func TestFig3Spreading(t *testing.T) {
	r, err := Fig3(4, 19)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReachTD < 1.5*r.ReachULK {
		t.Errorf("TD reach %g not well beyond ULK reach %g", r.ReachTD, r.ReachULK)
	}
	// The TD curve lies below the ULK curve at every distance.
	for i := range r.WithTD.Points {
		if r.WithTD.Points[i][1] > r.WithoutTD.Points[i][1]+1e-9 {
			t.Fatalf("TD rise above ULK at %g µm", r.WithTD.Points[i][0])
		}
	}
}

// TestFig12Codesign: the power-gating toy — reduction grows with
// dielectric conductivity and the dielectric beats its absence at
// equal pillar area.
func TestFig12Codesign(t *testing.T) {
	r, err := Fig12(4, 17)
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Curve.Points
	if len(pts) < 5 {
		t.Fatalf("curve too short: %d", len(pts))
	}
	if pts[len(pts)-1][1] <= pts[0][1] {
		t.Error("reduction should grow with dielectric conductivity")
	}
	for _, p := range pts {
		if p[1] <= 0 || p[1] >= 100 {
			t.Errorf("reduction %g%% at k=%g out of range", p[1], p[0])
		}
	}
	if r.FourPillarULKReduction <= 0 {
		t.Error("4x pillars should still help")
	}
	// Area efficiency: the single pillar + TD beats the 4x block per
	// unit pillar area.
	perAreaSingle := r.SinglePillarTDReduction
	perAreaQuad := r.FourPillarULKReduction / 4
	if perAreaSingle <= perAreaQuad {
		t.Errorf("single+TD per-area reduction %g should beat quad+ULK %g", perAreaSingle, perAreaQuad)
	}
}

func TestMacroCooling(t *testing.T) {
	r, err := MacroCooling(4, 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.RiseULK <= 0 || r.RiseTD <= 0 {
		t.Fatalf("non-positive rises: %+v", r)
	}
	if r.RiseTD >= r.RiseULK {
		t.Errorf("thermal dielectric did not cool the macro: %g vs %g", r.RiseTD, r.RiseULK)
	}
	if ratio := r.RiseULK / r.RiseTD; ratio < 1.5 {
		t.Errorf("macro rise reduction %gx, paper: 3x (15°C→5°C)", ratio)
	}
}

// TestMisalignment runs a small stack and the defaults that paperfigs
// and examples/pillarlab print (8 tiers, 41×41 cells of 0.1 µm), whose
// thermal-dielectric stacks a z-line PCG cannot solve: its residual
// stagnates from the first iteration.
func TestMisalignment(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tiers, n      int
		tolULK, tolTD float64 // expected tolerances (m); 0 = not pinned
	}{
		{"4tiers-21", 4, 21, 0, 0},
		// EXPERIMENTS.md, Obs. 4c: 200 nm → 1.5 µm.
		{"defaults", 0, 0, 200e-9, 1500e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Misalignment(tc.tiers, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if r.TolTD <= r.TolULK {
				t.Errorf("TD tolerance %g should exceed ULK %g", r.TolTD, r.TolULK)
			}
			if tc.tolTD > 0 && (!nearlyEqual(r.TolULK, tc.tolULK, 1e-9) || !nearlyEqual(r.TolTD, tc.tolTD, 1e-9)) {
				t.Errorf("tolerances %g / %g m, want %g / %g", r.TolULK, r.TolTD, tc.tolULK, tc.tolTD)
			}
			// Rise grows with offset for both dielectrics.
			for _, s := range []struct {
				name string
				pts  [][]float64
			}{{"ulk", r.ULK.Points}, {"td", r.TD.Points}} {
				last := s.pts[len(s.pts)-1][1]
				if last <= s.pts[0][1] {
					t.Errorf("%s misalignment rise not increasing", s.name)
				}
			}
		})
	}
}

func TestTierResistanceShare(t *testing.T) {
	share, err := TierResistanceShare(10)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.5 || share > 0.95 {
		t.Errorf("tier resistance share %g, paper: 0.85", share)
	}
}

func TestPillarReach(t *testing.T) {
	ulk, td := PillarReach()
	if td <= ulk || ulk <= 0 {
		t.Errorf("analytic reach ulk=%g td=%g inconsistent", ulk, td)
	}
}

func TestFig2b(t *testing.T) {
	r, err := Fig2b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Scaffolding.Feasible {
		t.Fatal("scaffolding infeasible at 12 tiers")
	}
	if r.DummyVias.Feasible && r.DummyVias.FootprintPenalty <= r.VerticalOnly.FootprintPenalty {
		t.Error("dummy vias should cost more than vertical-only")
	}
	if r.VerticalOnly.FootprintPenalty <= r.Scaffolding.FootprintPenalty {
		t.Error("vertical-only should cost more than scaffolding")
	}
	if !strings.Contains(r.Table.String(), "scaffolding") {
		t.Error("table missing scaffolding row")
	}
}

func TestFig2c(t *testing.T) {
	r, err := Fig2c(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.RiseRatio < 2 {
		t.Errorf("iso-penalty rise ratio %g, paper: 10.2", r.RiseRatio)
	}
	if r.ScaffoldTjC >= r.DummyTjC {
		t.Error("scaffolding should be cooler at iso penalty")
	}
}

func TestFig7a(t *testing.T) {
	r, err := Fig7a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.KVert <= 0 || row.KLat < row.KVert/10 {
			t.Errorf("suspicious homogenization %+v", row)
		}
		// Within ~3x of the published values (coarse grid).
		if row.KVert < row.PaperKVert/3.5 || row.KVert > row.PaperKVert*3.5 {
			t.Errorf("%s/%s vertical %g vs paper %g", row.Group, row.Dielectric, row.KVert, row.PaperKVert)
		}
	}
}

func TestFig7b(t *testing.T) {
	r := Fig7b()
	if len(r.Points) != 11 {
		t.Fatalf("expected 11 points, got %d", len(r.Points))
	}
	if !nearlyEqual(r.Points[0].Fill, 0.06, 0.01) {
		t.Errorf("baseline fill %g", r.Points[0].Fill)
	}
	if !nearlyEqual(r.Points[10].Fill, 0.131, 0.05) {
		t.Errorf("fill at +23%% area: %g", r.Points[10].Fill)
	}
}

func TestFig9(t *testing.T) {
	r, err := Fig9(quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, byStrat := range r.MaxTiers {
		scaf := byStrat[core.Scaffolding]
		conv := byStrat[core.Conventional3D]
		if scaf < conv {
			t.Errorf("%s: scaffolding (%d) below conventional (%d)", name, scaf, conv)
		}
		if scaf < 5 {
			t.Errorf("%s: scaffolding supports only %d tiers by 8", name, scaf)
		}
	}
	if len(r.Curves) != 3 {
		t.Errorf("expected curves for 3 designs, got %d", len(r.Curves))
	}
}

func TestFig10(t *testing.T) {
	r, err := Fig10(quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ConvTiers) != len(r.Budgets) || len(r.ScafTiers) != len(r.Budgets) {
		t.Fatal("tier lists mismatch budgets")
	}
	for i := range r.Budgets {
		if r.ScafTiers[i] < r.ConvTiers[i] {
			t.Errorf("budget %g: scaffolding %d below conventional %d", r.Budgets[i], r.ScafTiers[i], r.ConvTiers[i])
		}
		if i > 0 && r.ScafTiers[i] < r.ScafTiers[i-1] {
			t.Error("scaffolding tiers should not fall with budget")
		}
	}
}

func TestFig11(t *testing.T) {
	r, err := Fig11(quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 2 {
		t.Fatalf("expected 2 heatsinks, got %d", len(r.Curves))
	}
	out := r.Table.String()
	for _, want := range []string{"two-phase", "microfluidic", "scaffolding"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 11 table missing %q:\n%s", want, out)
		}
	}
}

func TestTableI(t *testing.T) {
	r, err := TableI(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Evals) != 3 {
		t.Fatalf("expected 3 designs, got %d", len(r.Evals))
	}
	for name, byStrat := range r.Evals {
		scaf := byStrat[core.Scaffolding]
		vert := byStrat[core.VerticalOnly]
		if !scaf.Feasible {
			t.Errorf("%s: scaffolding infeasible at paper tier count", name)
		}
		if vert.Feasible && vert.FootprintPenalty < scaf.FootprintPenalty {
			t.Errorf("%s: vertical-only cheaper than scaffolding", name)
		}
		if name == "Fujitsu Research" && !scaf.DelayNA() {
			t.Error("Fujitsu delay should be n/a")
		}
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PillarSize.Rows) != 3 || len(r.DielectricGrade.Rows) != 3 {
		t.Fatal("ablation tables incomplete")
	}
	if r.SchedulingGainK <= 0 {
		t.Errorf("scheduling gain %g K should be positive", r.SchedulingGainK)
	}
	if r.MemoryLayerK <= 5 {
		t.Errorf("memory layer cost %g K implausibly small", r.MemoryLayerK)
	}
}

// TestHeterogeneous: alternating Gemmini/Rocket tiers — per-tier
// "optimal" pillar patterns break column continuity and run hotter
// than one aligned constellation (Observation 4c at chip scale).
func TestHeterogeneous(t *testing.T) {
	r, err := Heterogeneous(quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.MisalignmentCostK < 3 {
		t.Errorf("misalignment cost only %g K — column-continuity effect not visible", r.MisalignmentCostK)
	}
	if r.TMaxAlignedC <= 100 || r.TMaxPerTierC <= r.TMaxAlignedC {
		t.Errorf("implausible temperatures: aligned %g, per-tier %g", r.TMaxAlignedC, r.TMaxPerTierC)
	}
	if _, err := Heterogeneous(quick, 7); err == nil {
		t.Error("odd tier count accepted")
	}
}

// TestGatedTransient: power gating with rotation keeps the transient
// peak well below the all-on steady state.
func TestGatedTransient(t *testing.T) {
	r, err := GatedTransient(4, 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.GatingBenefitK <= 0 {
		t.Errorf("gating bought nothing: rotated %g vs all-on %g", r.PeakRotatedC, r.SteadyAllOnC)
	}
	if r.PeakRotatedC <= 100 {
		t.Errorf("rotated peak %g°C below ambient — broken simulation", r.PeakRotatedC)
	}
}

// TestSolverCrossCheck: the FVM and spectral backends agree on the
// pillar-free 12-tier stack — the Fig. 6 cross-referencing step.
func TestSolverCrossCheck(t *testing.T) {
	r, err := SolverCrossCheck(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeltaK > 0.01 {
		t.Errorf("backends disagree by %g K (FVM %g, spectral %g)", r.DeltaK, r.FVMPeakC, r.SpectralPeakC)
	}
	if r.FVMPeakC < 150 {
		t.Errorf("unscaffolded 12-tier stack at %g°C — should be runaway", r.FVMPeakC)
	}
}
