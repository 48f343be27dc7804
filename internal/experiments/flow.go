package experiments

import (
	"fmt"

	"thermalscaffold/internal/beol"
	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/dummyfill"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/pdk"
	"thermalscaffold/internal/report"
)

// Options tunes experiment fidelity. The zero value runs at paper
// fidelity; Quick trims resolution for fast regression runs.
type Options struct {
	Quick bool
}

func (o Options) grid() int {
	if o.Quick {
		return 12
	}
	return 16
}

func (o Options) taskSpread() float64 {
	if o.Quick {
		return -1 // disable scheduling solves
	}
	return 0.15
}

func gemminiConfig(o Options) core.Config {
	return core.Config{
		Design: design.Gemmini(), Sink: heatsink.TwoPhase(),
		NX: o.grid(), NY: o.grid(), TaskSpread: o.taskSpread(),
		Ctx: Ctx, Telemetry: Telemetry,
	}
}

// Fig2bResult compares cooling approaches at 12 tiers and T<125 °C.
type Fig2bResult struct {
	Table        *report.Table
	DummyVias    *core.Evaluation
	Scaffolding  *core.Evaluation
	VerticalOnly *core.Evaluation
}

// Fig2b regenerates the Fig. 2b table: footprint and delay penalties
// of thermal dummy vias versus scaffolding for a 12-tier Gemmini
// stack under 125 °C (paper: 78 %/17 % vs 10 %/3 %).
func Fig2b(o Options) (*Fig2bResult, error) {
	cfg := gemminiConfig(o)
	out := &Fig2bResult{}
	var err error
	if out.DummyVias, err = core.EvaluateMinPenalty(cfg, core.Conventional3D, 12); err != nil {
		return nil, err
	}
	if out.VerticalOnly, err = core.EvaluateMinPenalty(cfg, core.VerticalOnly, 12); err != nil {
		return nil, err
	}
	if out.Scaffolding, err = core.EvaluateMinPenalty(cfg, core.Scaffolding, 12); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 2b: cooling approach penalties (T<125°C, N=12, Gemmini)",
		"approach", "feasible", "footprint %", "delay %", "paper footprint %", "paper delay %")
	t.AddRow("thermal dummy vias", out.DummyVias.Feasible, 100*out.DummyVias.FootprintPenalty, 100*out.DummyVias.DelayPenalty, 78.0, 17.0)
	t.AddRow("vertical only", out.VerticalOnly.Feasible, 100*out.VerticalOnly.FootprintPenalty, 100*out.VerticalOnly.DelayPenalty, 34.0, 7.0)
	t.AddRow("scaffolding", out.Scaffolding.Feasible, 100*out.Scaffolding.FootprintPenalty, 100*out.Scaffolding.DelayPenalty, 10.0, 3.0)
	out.Table = t
	return out, nil
}

// Fig2cResult is the iso-penalty temperature comparison.
type Fig2cResult struct {
	Table       *report.Table
	ScaffoldTjC float64
	DummyTjC    float64
	// RiseRatio is (dummy Tj−T0)/(scaffold Tj−T0); paper: 10.2×.
	RiseRatio float64
}

// Fig2c regenerates Fig. 2c: at the same 10 % footprint and ~3 %
// delay budget, scaffolding's junction rise is a large factor below
// thermal dummy vias at 12 tiers.
func Fig2c(o Options) (*Fig2cResult, error) {
	cfg := gemminiConfig(o)
	scaf, err := core.EvaluateAtBudget(cfg, core.Scaffolding, 12, 0.10)
	if err != nil {
		return nil, err
	}
	dummy, err := core.EvaluateAtBudget(cfg, core.Conventional3D, 12, 0.10)
	if err != nil {
		return nil, err
	}
	t0 := cfg.Sink.AmbientC
	out := &Fig2cResult{
		ScaffoldTjC: scaf.TMaxC,
		DummyTjC:    dummy.TMaxC,
		RiseRatio:   (dummy.TMaxC - t0) / (scaf.TMaxC - t0),
	}
	t := report.NewTable("Fig. 2c: Tj at iso-10% footprint, 3% delay, N=12",
		"approach", "Tj (°C)", "Tj−T0 (K)")
	t.AddRow("thermal dummy vias", dummy.TMaxC, dummy.TMaxC-t0)
	t.AddRow("scaffolding", scaf.TMaxC, scaf.TMaxC-t0)
	t.AddRow(fmt.Sprintf("rise ratio %.1fx (paper: 10.2x)", out.RiseRatio), "", "")
	out.Table = t
	return out, nil
}

// Fig7aResult is the BEOL homogenization table.
type Fig7aResult struct {
	Table *report.Table
	Rows  []Fig7aRow
}

// Fig7aRow pairs our homogenization with the paper's.
type Fig7aRow struct {
	Group, Dielectric     string
	KVert, KLat           float64
	PaperKVert, PaperKLat float64
}

// Fig7a regenerates the Fig. 7a effective-conductivity table by
// numerical homogenization of explicit BEOL slice geometry.
func Fig7a(o Options) (*Fig7aResult, error) {
	stackPDK := pdk.ASAP7()
	specs := []struct {
		group, diel string
		spec        beol.SliceSpec
		paperV      float64
		paperL      float64
	}{
		{"M8-M9", "ultra-low-k", beol.UpperGroupSpec(stackPDK, pdk.ConventionalDielectrics()), 6.9, 13.6},
		{"M8-M9", "thermal dielectric", beol.UpperGroupSpec(stackPDK, pdk.ScaffoldedDielectrics(materials.KThermalDielectricMin)), 93.59, 101.73},
		{"V0-V7", "ultra-low-k", beol.LowerGroupSpec(stackPDK, pdk.ConventionalDielectrics()), 0.31, 5.47},
	}
	out := &Fig7aResult{}
	t := report.NewTable("Fig. 7a: homogenized BEOL thermal conductivity (W/m/K)",
		"layers", "dielectric", "k vert", "k lat", "paper vert", "paper lat")
	for _, s := range specs {
		spec := s.spec
		if o.Quick {
			spec.TileX, spec.TileY, spec.NX, spec.NY = 320e-9, 320e-9, 40, 40
		}
		e, err := spec.Homogenize()
		if err != nil {
			return nil, err
		}
		row := Fig7aRow{Group: s.group, Dielectric: s.diel, KVert: e.KVertical, KLat: e.KLateral(), PaperKVert: s.paperV, PaperKLat: s.paperL}
		out.Rows = append(out.Rows, row)
		t.AddRow(s.group, s.diel, row.KVert, row.KLat, s.paperV, s.paperL)
	}
	out.Table = t
	return out, nil
}

// Fig7bResult is the fill-vs-area curve.
type Fig7bResult struct {
	Series *report.Series
	Points []dummyfill.Fig7bPoint
}

// Fig7b regenerates the Fig. 7b timing-aware fill insertion curve for
// the Rocket SoC: achievable fill density rises with placement area.
func Fig7b() *Fig7bResult {
	m := dummyfill.Default()
	pts := m.Fig7bCurve(0.44, 11)
	s := report.NewSeries("fig7b-fill-vs-area", "area_mm2", "fill_density")
	for _, p := range pts {
		s.Add(p.AreaMm2, p.Fill)
	}
	return &Fig7bResult{Series: s, Points: pts}
}

// Fig9Result carries the tier-scaling curves for all designs.
type Fig9Result struct {
	Table *report.Table
	// Curves[designName][strategy] is the tiers→Tmax series.
	Curves map[string]map[core.Strategy]*report.Series
	// MaxTiers[designName][strategy] is the supported tier count at
	// T<125 °C and the Fig. 9 design point (10 % area).
	MaxTiers map[string]map[core.Strategy]int
}

// Fig9 regenerates the Fig. 9 scaling study: peak temperature versus
// stacked tiers for the three designs under conventional 3D cooling
// and scaffolding, both at the fair-comparison design point (10 %
// area / ~3 % delay) with a porous two-phase heatsink.
func Fig9(o Options, maxN int) (*Fig9Result, error) {
	if maxN <= 0 {
		maxN = 16
	}
	out := &Fig9Result{
		Curves:   map[string]map[core.Strategy]*report.Series{},
		MaxTiers: map[string]map[core.Strategy]int{},
	}
	t := report.NewTable("Fig. 9: supported tiers at T<125°C (10% area budget, two-phase sink)",
		"design", "conventional", "scaffolding", "paper conv", "paper scaf")
	for _, d := range design.All() {
		cfg := core.Config{Design: d, Sink: heatsink.TwoPhase(), NX: o.grid(), NY: o.grid(), TaskSpread: o.taskSpread(), Ctx: Ctx, Telemetry: Telemetry}
		out.Curves[d.Name] = map[core.Strategy]*report.Series{}
		out.MaxTiers[d.Name] = map[core.Strategy]int{}
		for _, s := range []core.Strategy{core.Conventional3D, core.Scaffolding} {
			evals, err := core.SweepTiers(cfg, s, 0.10, maxN)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s: %w", d.Name, s, err)
			}
			series := report.NewSeries(fmt.Sprintf("fig9-%s-%s", d.Name, s), "tiers", "tmax_C")
			best := 0
			for _, e := range evals {
				series.Add(float64(e.Tiers), e.TMaxC)
				if e.Feasible {
					best = e.Tiers
				}
			}
			out.Curves[d.Name][s] = series
			out.MaxTiers[d.Name][s] = best
		}
		t.AddRow(d.Name, out.MaxTiers[d.Name][core.Conventional3D], out.MaxTiers[d.Name][core.Scaffolding],
			d.Paper.ConventionalTiers, d.Paper.ScaffoldTiers)
	}
	out.Table = t
	return out, nil
}

// Fig10Result is the fine-grained penalty exploration.
type Fig10Result struct {
	Conventional *report.Table
	Scaffolding  *report.Table
	// SupportedTiers[strategy][budgetIndex] at the sampled budgets.
	Budgets   []float64
	ConvTiers []int
	ScafTiers []int
}

// Fig10 regenerates the Fig. 10 penalty maps: supported tiers as a
// function of the area (and implied delay) budget for conventional
// 3D thermal and scaffolding.
func Fig10(o Options, maxN int) (*Fig10Result, error) {
	if maxN <= 0 {
		maxN = 14
	}
	budgets := []float64{0, 0.02, 0.05, 0.10, 0.20, 0.40, 0.78}
	if o.Quick {
		budgets = []float64{0, 0.05, 0.10, 0.40}
	}
	cfg := gemminiConfig(o)
	out := &Fig10Result{Budgets: budgets}
	conv := report.NewTable("Fig. 10a: conventional 3D thermal — supported tiers by penalty budget",
		"area budget %", "delay %", "tiers")
	scaf := report.NewTable("Fig. 10b: scaffolding — supported tiers by penalty budget",
		"area budget %", "delay %", "tiers")
	for _, b := range budgets {
		nConv, evalsC, err := core.MaxTiersAtBudget(cfg, core.Conventional3D, b, maxN)
		if err != nil {
			return nil, err
		}
		nScaf, evalsS, err := core.MaxTiersAtBudget(cfg, core.Scaffolding, b, maxN)
		if err != nil {
			return nil, err
		}
		out.ConvTiers = append(out.ConvTiers, nConv)
		out.ScafTiers = append(out.ScafTiers, nScaf)
		conv.AddRow(100*b, 100*delayAt(evalsC, nConv), nConv)
		scaf.AddRow(100*b, 100*delayAt(evalsS, nScaf), nScaf)
	}
	out.Conventional = conv
	out.Scaffolding = scaf
	return out, nil
}

// delayAt returns the delay penalty of the evaluation at the supported
// tier count best, or at the lowest N evaluated when best is 0; the
// tier search returns its evaluations sorted by N.
func delayAt(evals []*core.Evaluation, best int) float64 {
	for _, e := range evals {
		if e.Tiers == best {
			return e.DelayPenalty
		}
	}
	return evals[0].DelayPenalty
}

// Fig11Result is the heatsink exploration.
type Fig11Result struct {
	Table *report.Table
	// Curves[sinkName][strategy]: tiers → Tmax.
	Curves map[string]map[core.Strategy]*report.Series
}

// Fig11 regenerates Fig. 11: Gemmini peak temperature versus tiers
// for the microfluidic and two-phase heatsinks under both cooling
// strategies, reporting supported tiers at both the 125 °C and 85 °C
// limits.
func Fig11(o Options, maxN int) (*Fig11Result, error) {
	if maxN <= 0 {
		maxN = 14
	}
	out := &Fig11Result{Curves: map[string]map[core.Strategy]*report.Series{}}
	t := report.NewTable("Fig. 11: supported Gemmini tiers by heatsink and strategy",
		"heatsink", "strategy", "tiers @125°C", "tiers @85°C")
	for _, sink := range []heatsink.Model{heatsink.TwoPhase(), heatsink.Microfluidic()} {
		out.Curves[sink.Name] = map[core.Strategy]*report.Series{}
		for _, s := range []core.Strategy{core.Conventional3D, core.Scaffolding} {
			cfg := core.Config{Design: design.Gemmini(), Sink: sink, NX: o.grid(), NY: o.grid(), TaskSpread: o.taskSpread(), Ctx: Ctx, Telemetry: Telemetry}
			evals, err := core.SweepTiers(cfg, s, 0.10, maxN)
			if err != nil {
				return nil, err
			}
			series := report.NewSeries(fmt.Sprintf("fig11-%s-%s", sink.Name, s), "tiers", "tmax_C")
			n125, n85 := 0, 0
			for _, e := range evals {
				series.Add(float64(e.Tiers), e.TMaxC)
				if e.TMaxC <= 125 {
					n125 = e.Tiers
				}
				if e.TMaxC <= 85 {
					n85 = e.Tiers
				}
			}
			out.Curves[sink.Name][s] = series
			t.AddRow(sink.Name, s.String(), n125, n85)
		}
	}
	out.Table = t
	return out, nil
}

// TableIResult is the cross-design penalty comparison.
type TableIResult struct {
	Table *report.Table
	// Evals[designName][strategy].
	Evals map[string]map[core.Strategy]*core.Evaluation
}

// TableI regenerates Table I: footprint and delay penalties of the
// three cooling strategies across the three designs at near-constant
// scaffolding penalty (12 tiers; 13 for Rocket).
func TableI(o Options) (*TableIResult, error) {
	out := &TableIResult{Evals: map[string]map[core.Strategy]*core.Evaluation{}}
	t := report.NewTable("Table I: penalties by design and cooling strategy",
		"design", "strategy", "tiers", "feasible", "footprint %", "delay %", "paper fp %", "paper delay %")
	for _, d := range design.All() {
		tiers := d.Paper.ScaffoldTiers
		cfg := core.Config{Design: d, Sink: heatsink.TwoPhase(), NX: o.grid(), NY: o.grid(), TaskSpread: o.taskSpread(), Ctx: Ctx, Telemetry: Telemetry}
		out.Evals[d.Name] = map[core.Strategy]*core.Evaluation{}
		for _, s := range []core.Strategy{core.Conventional3D, core.VerticalOnly, core.Scaffolding} {
			e, err := core.EvaluateMinPenalty(cfg, s, tiers)
			if err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", d.Name, s, err)
			}
			out.Evals[d.Name][s] = e
			pf, pd := paperPenalty(d, s)
			t.AddRow(d.Name, s.String(), tiers, e.Feasible, 100*e.FootprintPenalty, 100*e.DelayPenalty, pf, pd)
		}
	}
	out.Table = t
	return out, nil
}

func paperPenalty(d *design.Design, s core.Strategy) (fp, dl float64) {
	switch s {
	case core.Scaffolding:
		return d.Paper.ScaffoldFootprintPct, d.Paper.ScaffoldDelayPct
	case core.VerticalOnly:
		return d.Paper.VerticalOnlyFootprintPct, d.Paper.VerticalOnlyDelayPct
	default:
		return d.Paper.ConventionalFootprintPct, d.Paper.ConventionalDelayPct
	}
}
