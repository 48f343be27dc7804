package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/telemetry"
)

func gemminiCfg() Config {
	return Config{Design: design.Gemmini(), Sink: heatsink.TwoPhase(), NX: 12, NY: 12}
}

func TestStrategyString(t *testing.T) {
	if Conventional3D.String() != "conventional-3D" ||
		VerticalOnly.String() != "vertical-only" ||
		Scaffolding.String() != "scaffolding" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := EvaluateMinPenalty(Config{}, Scaffolding, 4); err == nil {
		t.Error("nil design accepted")
	}
	bad := gemminiCfg()
	bad.Sink = heatsink.Model{Name: "broken"}
	if _, err := EvaluateMinPenalty(bad, Scaffolding, 4); err == nil {
		t.Error("broken sink accepted")
	}
	if _, err := EvaluateMinPenalty(gemminiCfg(), Scaffolding, 0); err == nil {
		t.Error("zero tiers accepted")
	}
	if _, err := EvaluateMinPenalty(gemminiCfg(), Strategy(9), 4); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := EvaluateAtBudget(gemminiCfg(), Scaffolding, 4, -0.1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := EvaluateAtBudget(gemminiCfg(), Strategy(9), 4, 0.1); err == nil {
		t.Error("unknown strategy accepted at budget")
	}
	for _, maxN := range []int{0, -2} {
		if _, _, err := MaxTiersAtBudget(gemminiCfg(), Scaffolding, 0.1, maxN); err == nil {
			t.Errorf("maxN %d accepted by the tier search", maxN)
		}
		if _, err := SweepTiers(gemminiCfg(), Scaffolding, 0.1, maxN); err == nil || !strings.Contains(err.Error(), "bad maxN") {
			t.Errorf("maxN %d: sweep error %v, want bad maxN", maxN, err)
		}
	}
}

// TestTableIHeadline: minimum penalties at 12 Gemmini tiers order as
// the paper's Table I: scaffolding ≪ vertical-only ≪ conventional,
// with scaffolding near 10 % footprint / 3 % delay.
func TestTableIHeadline(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1 // disable scheduling solves for speed (sets spread ≤ 0)

	scaf, err := EvaluateMinPenalty(cfg, Scaffolding, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !scaf.Feasible {
		t.Fatalf("scaffolding 12 tiers infeasible: %v", scaf)
	}
	if scaf.FootprintPenalty < 0.04 || scaf.FootprintPenalty > 0.18 {
		t.Errorf("scaffolding footprint %.1f%%, paper: 10%%", 100*scaf.FootprintPenalty)
	}
	if scaf.DelayPenalty < 0.015 || scaf.DelayPenalty > 0.05 {
		t.Errorf("scaffolding delay %.1f%%, paper: 3%%", 100*scaf.DelayPenalty)
	}

	vert, err := EvaluateMinPenalty(cfg, VerticalOnly, 12)
	if err != nil {
		t.Fatal(err)
	}
	if vert.Feasible && vert.FootprintPenalty < 1.8*scaf.FootprintPenalty {
		t.Errorf("vertical-only (%.1f%%) should cost ≳2x scaffolding (%.1f%%)",
			100*vert.FootprintPenalty, 100*scaf.FootprintPenalty)
	}

	conv, err := EvaluateMinPenalty(cfg, Conventional3D, 12)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Feasible {
		if conv.FootprintPenalty < vert.FootprintPenalty {
			t.Errorf("conventional (%.1f%%) should cost more than vertical-only (%.1f%%)",
				100*conv.FootprintPenalty, 100*vert.FootprintPenalty)
		}
		if conv.FootprintPenalty < 3*scaf.FootprintPenalty {
			t.Errorf("conventional/scaffolding footprint ratio %.1f, paper: 7.8",
				conv.FootprintPenalty/scaf.FootprintPenalty)
		}
		if conv.DelayPenalty < 2*scaf.DelayPenalty {
			t.Errorf("conventional delay %.1f%% should dwarf scaffolding %.1f%%",
				100*conv.DelayPenalty, 100*scaf.DelayPenalty)
		}
	}
}

// TestObservation1TierScaling: at the paper's fair-comparison budget
// (10 % area), scaffolding supports ~3x the tiers of conventional 3D
// thermal.
func TestObservation1TierScaling(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	scafN, _, err := MaxTiersAtBudget(cfg, Scaffolding, 0.10, 14)
	if err != nil {
		t.Fatal(err)
	}
	convN, _, err := MaxTiersAtBudget(cfg, Conventional3D, 0.10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if scafN < 10 {
		t.Errorf("scaffolding max tiers %d, paper: 12", scafN)
	}
	if convN > 6 || convN < 2 {
		t.Errorf("conventional max tiers %d, paper: 3-4", convN)
	}
	if ratio := float64(scafN) / float64(convN); ratio < 2 {
		t.Errorf("tier scaling ratio %.1fx, paper: 3-4x", ratio)
	}
}

// TestFig2cIsoPenalty: at iso-10 % footprint and N=12, scaffolding's
// T_j−T_0 is several times below the dummy-via approach.
func TestFig2cIsoPenalty(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	scaf, err := EvaluateAtBudget(cfg, Scaffolding, 12, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := EvaluateAtBudget(cfg, Conventional3D, 12, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	t0 := cfg.Sink.AmbientC
	ratio := (conv.TMaxC - t0) / (scaf.TMaxC - t0)
	if ratio < 2.5 {
		t.Errorf("iso-penalty Tj−T0 ratio %.1fx, paper: 10.2x", ratio)
	}
	if !scaf.Feasible {
		t.Error("scaffolding should hold 125°C at 10% and 12 tiers")
	}
	if conv.Feasible {
		t.Error("dummy vias at 10% should blow past 125°C at 12 tiers")
	}
}

// TestBudgetMonotonicity: more budget, cooler chip.
func TestBudgetMonotonicity(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	prev := math.Inf(1)
	for _, b := range []float64{0, 0.05, 0.15, 0.30} {
		e, err := EvaluateAtBudget(cfg, Scaffolding, 10, b)
		if err != nil {
			t.Fatal(err)
		}
		if e.TMaxC > prev+0.01 {
			t.Fatalf("budget %g: T=%g rose above %g", b, e.TMaxC, prev)
		}
		prev = e.TMaxC
		if e.FootprintPenalty > b+1e-9 {
			t.Errorf("budget %g exceeded: %g", b, e.FootprintPenalty)
		}
	}
}

// TestBudgetFootprintSpendsBudget: budget mode reports the footprint
// of the pillar metal it places, which the bisection matches to the
// budget, for every design and both pillar strategies — not the
// smaller effective coverage the solver sees inside macros.
func TestBudgetFootprintSpendsBudget(t *testing.T) {
	for _, d := range design.All() {
		cfg := Config{Design: d, Sink: heatsink.TwoPhase(), NX: 12, NY: 12, TaskSpread: -1}
		for _, s := range []Strategy{Scaffolding, VerticalOnly} {
			for _, budget := range []float64{0.10, 0.20} {
				e, err := EvaluateAtBudget(cfg, s, 4, budget)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(e.FootprintPenalty-budget) > 1e-3*budget {
					t.Errorf("%s %s budget %g: footprint %g", d.Name, s, budget, e.FootprintPenalty)
				}
			}
		}
	}
}

// TestConventionalUsesResources: at a budget, the conventional flow
// reports its fill and footprint.
func TestConventionalUsesResources(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	e, err := EvaluateAtBudget(cfg, Conventional3D, 8, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if e.FillFraction <= 0.06 {
		t.Errorf("fill %g should exceed the free level at a 30%% budget", e.FillFraction)
	}
	if e.FootprintPenalty <= 0.2 || e.FootprintPenalty > 0.31 {
		t.Errorf("footprint %g should track the budget", e.FootprintPenalty)
	}
}

// TestSchedulingHelpsConventional: enabling the task-spread scheduler
// lowers the conventional peak.
func TestSchedulingHelpsConventional(t *testing.T) {
	base := gemminiCfg()
	base.TaskSpread = -1
	sched := gemminiCfg()
	sched.TaskSpread = 0.3
	e0, err := EvaluateAtBudget(base, Conventional3D, 6, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := EvaluateAtBudget(sched, Conventional3D, 6, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TMaxC >= e0.TMaxC {
		t.Errorf("scheduling did not help: %g vs %g", e1.TMaxC, e0.TMaxC)
	}
}

// TestFujitsuDelayNA: the preliminary design reports delay as n/a.
func TestFujitsuDelayNA(t *testing.T) {
	cfg := Config{Design: design.FujitsuResearch(), Sink: heatsink.TwoPhase(), NX: 12, NY: 12, TaskSpread: -1}
	e, err := EvaluateAtBudget(cfg, Scaffolding, 4, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !e.DelayNA() {
		t.Error("Fujitsu delay should be n/a")
	}
	if !strings.Contains(e.String(), "n/a") {
		t.Errorf("String() should render n/a: %s", e.String())
	}
}

// TestEvaluationString renders all fields.
func TestEvaluationString(t *testing.T) {
	e := &Evaluation{Strategy: Scaffolding, Tiers: 12, TMaxC: 124.9, Feasible: true, FootprintPenalty: 0.099, DelayPenalty: 0.03}
	s := e.String()
	for _, want := range []string{"scaffolding", "N=12", "124.9", "9.9%", "3.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// TestSweepTiersShape: Fig. 9's curves — temperature rises with N and
// scaffolding stays below conventional everywhere.
func TestSweepTiersShape(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	scaf, err := SweepTiers(cfg, Scaffolding, 0.10, 8)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := SweepTiers(cfg, Conventional3D, 0.10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaf) != 8 || len(conv) != 8 {
		t.Fatalf("sweep lengths %d %d", len(scaf), len(conv))
	}
	for i := 1; i < 8; i++ {
		if scaf[i].TMaxC < scaf[i-1].TMaxC-0.01 {
			t.Errorf("scaffolding temp not monotone at N=%d", i+1)
		}
	}
	for i := 2; i < 8; i++ { // beyond trivial stacks
		if scaf[i].TMaxC >= conv[i].TMaxC {
			t.Errorf("N=%d: scaffolding %g not below conventional %g", i+1, scaf[i].TMaxC, conv[i].TMaxC)
		}
	}
}

// TestMaxTiersAtBudgetMatchesSweep: the tier search is an exact
// replacement for reading the largest feasible N off a full sweep, on
// every design, both strategies and budgets from none to generous.
func TestMaxTiersAtBudgetMatchesSweep(t *testing.T) {
	const maxN = 14
	for _, d := range design.All() {
		cfg := Config{Design: d, Sink: heatsink.TwoPhase(), NX: 12, NY: 12, TaskSpread: -1}
		for _, s := range []Strategy{Conventional3D, Scaffolding} {
			for _, budget := range []float64{0, 0.05, 0.10, 0.40} {
				sweep, err := SweepTiers(cfg, s, budget, maxN)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, e := range sweep {
					if e.Feasible {
						want = e.Tiers
					}
				}
				best, evals, err := MaxTiersAtBudget(cfg, s, budget, maxN)
				if err != nil {
					t.Fatal(err)
				}
				name := d.Name + "/" + s.String()
				if best != want {
					t.Errorf("%s budget %g: search found %d tiers, sweep %d", name, budget, best, want)
				}
				if len(evals) > bits.Len(uint(maxN)) {
					t.Errorf("%s budget %g: %d solves, want ≤ %d", name, budget, len(evals), bits.Len(uint(maxN)))
				}
				for k, e := range evals {
					if k > 0 && e.Tiers <= evals[k-1].Tiers {
						t.Errorf("%s budget %g: evaluations not strictly sorted by N at %d", name, budget, k)
					}
					if got := sweep[e.Tiers-1].TMaxC; math.Float64bits(e.TMaxC) != math.Float64bits(got) {
						t.Errorf("%s budget %g N=%d: T_max %v, sweep %v", name, budget, e.Tiers, e.TMaxC, got)
					}
				}
			}
		}
	}
}

// TestMaxTiersAtBudgetEdges: a target nothing meets, a target
// everything meets, a one-tier search and a cancelled search.
func TestMaxTiersAtBudgetEdges(t *testing.T) {
	cfg := gemminiCfg()
	cfg.TaskSpread = -1
	one, err := EvaluateAtBudget(cfg, Scaffolding, 1, 0.10)
	if err != nil {
		t.Fatal(err)
	}

	cold := cfg
	cold.TTargetC = one.TMaxC - 1
	best, evals, err := MaxTiersAtBudget(cold, Scaffolding, 0.10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || evals[0].Tiers != 1 {
		t.Errorf("target below the one-tier T_max: best %d, lowest N %d; want 0 and 1", best, evals[0].Tiers)
	}

	hot := cfg
	hot.TTargetC = 1000
	if best, _, err := MaxTiersAtBudget(hot, Scaffolding, 0.10, 14); err != nil || best != 14 {
		t.Errorf("target 1000°C: best %d (%v), want 14", best, err)
	}

	tel := telemetry.New()
	single := cfg
	single.Telemetry = tel
	best, evals, err = MaxTiersAtBudget(single, Scaffolding, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 || len(evals) != 1 || tel.Counter(telemetry.CounterSolves) != 1 {
		t.Errorf("maxN 1: best %d, %d evaluations, %d solves; want 1, 1, 1",
			best, len(evals), tel.Counter(telemetry.CounterSolves))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := cfg
	cancelled.Ctx = ctx
	cancelled.Telemetry = telemetry.New()
	if _, _, err := MaxTiersAtBudget(cancelled, Scaffolding, 0.10, 14); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search: %v, want context.Canceled", err)
	}
	if n := cancelled.Telemetry.Counter(telemetry.CounterSolves); n != 0 {
		t.Errorf("cancelled search started %d solves, want 0", n)
	}
}

// TestCheckRising: the guard on the search's monotonicity contract
// rejects a T_max that stays level, falls or is NaN as N rises.
func TestCheckRising(t *testing.T) {
	evals := func(ts ...float64) []*Evaluation {
		var out []*Evaluation
		for i, tc := range ts {
			out = append(out, &Evaluation{Strategy: Scaffolding, Tiers: 2*i + 1, TMaxC: tc})
		}
		return out
	}
	for _, ok := range [][]float64{nil, {110}, {110, 111, 130}} {
		if err := checkRising(evals(ok...)); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
		}
	}
	for _, bad := range [][]float64{{110, 110}, {110, 120, 119}, {110, math.NaN()}} {
		if err := checkRising(evals(bad...)); err == nil || !strings.Contains(err.Error(), "rise with N") {
			t.Errorf("%v: error %v, want the not-rising error", bad, err)
		}
	}
}
