// Package core is the thermal-scaffolding co-design engine — the
// paper's primary contribution. It evaluates the three cooling
// strategies on a design:
//
//   - Conventional3D: thermal-aware metallization (dummy fill /
//     dummy vias), thermal-aware floorplanning, and thermal-aware
//     scheduling — the Sec. III-B baseline.
//   - VerticalOnly: scaffolding pillars placed by the Sec. III-A
//     algorithm but with ultra-low-k dielectric everywhere (the
//     "Vertical Conduction Only" column of Table I).
//   - Scaffolding: pillars plus the nanocrystalline-diamond thermal
//     dielectric in the upper BEOL layers — the full technique.
//
// Two evaluation modes mirror the paper's experiments: minimum
// penalty to reach a temperature target at a tier count (Table I,
// Fig. 2b), and fixed penalty budget with temperature reported
// (Fig. 9/10/11 sweeps).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"thermalscaffold/internal/delay"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/dummyfill"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/pillar"
	"thermalscaffold/internal/sched"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
	"thermalscaffold/internal/units"
)

// Strategy enumerates the cooling approaches.
type Strategy int

const (
	Conventional3D Strategy = iota
	VerticalOnly
	Scaffolding
)

func (s Strategy) String() string {
	switch s {
	case Conventional3D:
		return "conventional-3D"
	case VerticalOnly:
		return "vertical-only"
	case Scaffolding:
		return "scaffolding"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config holds the shared evaluation parameters.
type Config struct {
	Design *design.Design
	Sink   heatsink.Model
	// TTargetC is the junction limit in °C (default 125, the
	// reliability bound of [6]).
	TTargetC float64
	// NX, NY is the thermal grid resolution (default 16×16).
	NX, NY int
	// TaskSpread is the ±fractional power spread of the scheduled
	// task mix (default 0.15); only the conventional flow exploits it.
	TaskSpread float64
	// Tol is the solver tolerance (default 1e-6).
	Tol float64
	// MaxCoverage caps pillar coverage (default 0.5).
	MaxCoverage float64
	// Ctx, when non-nil, cancels the evaluation: every solve checks it
	// per iteration and the sweep/bisection loops check it between
	// solves, so control returns within one solver iteration of
	// cancellation.
	Ctx context.Context
	// Telemetry, when non-nil, collects solve traces and counters from
	// every thermal solve the evaluation runs.
	// Observational only — attaching a collector never changes results.
	Telemetry *telemetry.Collector
}

// solverOpts builds the evaluation's standard solver options with the
// cancellation and telemetry hooks attached.
func (c Config) solverOpts() solver.Options {
	return solver.Options{
		Tol: c.Tol, MaxIter: 80000, Ctx: c.Ctx, Telemetry: c.Telemetry,
	}
}

// ctxErr reports a wrapped cancellation error when the evaluation's
// context is done (nil Ctx never cancels).
func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("core: evaluation cancelled: %w", err)
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if c.Design == nil {
		return c, errors.New("core: nil design")
	}
	if err := c.Design.Validate(); err != nil {
		return c, err
	}
	if err := c.Sink.Validate(); err != nil {
		return c, err
	}
	if c.TTargetC == 0 {
		c.TTargetC = 125
	}
	if c.NX < 1 {
		c.NX = 16
	}
	if c.NY < 1 {
		c.NY = 16
	}
	if c.TaskSpread == 0 {
		c.TaskSpread = 0.15
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.MaxCoverage <= 0 {
		c.MaxCoverage = 0.5
	}
	return c, nil
}

// Evaluation is the outcome of evaluating one (strategy, tiers)
// point.
type Evaluation struct {
	Strategy Strategy
	Tiers    int
	TMaxC    float64
	// Feasible reports whether TMaxC ≤ the target (minimum-penalty
	// mode) or whether the budgeted resources were applied
	// successfully (budget mode).
	Feasible bool
	// FootprintPenalty is the fractional die-area cost.
	FootprintPenalty float64
	// DelayPenalty is the fractional delay cost (NaN when the design
	// has no timing data).
	DelayPenalty float64
	// MeanCoverage is the pillar metal coverage (pillar strategies).
	MeanCoverage float64
	// FillFraction is the dummy-fill density (conventional strategy).
	FillFraction float64
}

// DelayNA reports whether the delay penalty is not applicable
// (Fujitsu's preliminary design has no timing data — Table I "n/a").
func (e *Evaluation) DelayNA() bool { return math.IsNaN(e.DelayPenalty) }

func (e *Evaluation) String() string {
	d := "n/a"
	if !e.DelayNA() {
		d = fmt.Sprintf("%.1f%%", 100*e.DelayPenalty)
	}
	return fmt.Sprintf("%s N=%d: T=%.1f°C footprint=%.1f%% delay=%s feasible=%v",
		e.Strategy, e.Tiers, e.TMaxC, 100*e.FootprintPenalty, d, e.Feasible)
}

// beolFor returns the homogenized BEOL for a strategy.
func beolFor(s Strategy) stack.BEOLProps {
	if s == Scaffolding {
		return stack.ScaffoldedBEOL()
	}
	return stack.ConventionalBEOL()
}

// delayPenaltyFor converts a footprint/fill outcome into the
// strategy's delay penalty (NaN for designs without timing).
func delayPenaltyFor(cfg Config, s Strategy, footprint, addedFill float64) float64 {
	if cfg.Design.NoTiming {
		return math.NaN()
	}
	switch s {
	case Scaffolding:
		return delay.ScaffoldingPenalty(footprint).Total()
	case VerticalOnly:
		return delay.VerticalOnlyPenalty(footprint).Total()
	default:
		return delay.DummyFillPenalty(footprint, addedFill).Total()
	}
}

// EvaluateMinPenalty finds the minimum penalty configuration of the
// strategy that keeps tiers stacked tiers below the temperature
// target — the Table I experiment.
func EvaluateMinPenalty(cfg Config, s Strategy, tiers int) (*Evaluation, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if tiers < 1 {
		return nil, fmt.Errorf("core: bad tier count %d", tiers)
	}
	switch s {
	case Scaffolding, VerticalOnly:
		p, err := pillar.Place(pillar.Request{
			Design: cfg.Design, Tiers: tiers, Sink: cfg.Sink,
			TTargetC: cfg.TTargetC, BEOL: beolFor(s),
			NX: cfg.NX, NY: cfg.NY, MaxCoverage: cfg.MaxCoverage, Tol: cfg.Tol,
			Ctx: cfg.Ctx, Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		return &Evaluation{
			Strategy: s, Tiers: tiers,
			TMaxC:            p.TMaxC,
			Feasible:         p.Feasible,
			FootprintPenalty: p.FootprintPenalty,
			DelayPenalty:     delayPenaltyFor(cfg, s, p.FootprintPenalty, 0),
			MeanCoverage:     p.MeanCoverage,
		}, nil
	case Conventional3D:
		return evaluateConventionalMin(cfg, tiers)
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", s)
	}
}

// conventionalTMax solves the conventional flow at a given fill
// fraction: the design is diluted over the grown footprint, the
// dummy-via conductivity boost is applied, and the task mix is
// scheduled hot-near-sink. A non-nil cont starts the solve from its
// guess and records the solved field.
func conventionalTMax(cfg Config, tiers int, fill float64, cont *solver.Continuation) (float64, float64, error) {
	fm := dummyfill.Default()
	growth, err := fm.AreaGrowthForFill(fill)
	if err != nil {
		return 0, 0, err
	}
	scaled := cfg.Design.Tier.Scaled(1 + growth)
	pm := scaled.PowerMap(cfg.NX, cfg.NY)
	extra := fm.VerticalConductivity(0, fill)
	spec := &stack.Spec{
		DieW: scaled.Die.W, DieH: scaled.Die.H,
		Tiers: tiers, NX: cfg.NX, NY: cfg.NY,
		PowerMaps:      [][]float64{pm},
		BEOL:           beolFor(Conventional3D),
		ExtraBEOLKVert: extra,
		Sink:           cfg.Sink,
		MemoryPerTier:  true,
	}
	// Thermal-aware scheduling of a heterogeneous task mix.
	if tiers > 1 && cfg.TaskSpread > 0 {
		maps, _, err := sched.Schedule(spec, sched.SpreadTasks(tiers, cfg.TaskSpread), solver.Options{Tol: cfg.Tol, Ctx: cfg.Ctx, Telemetry: cfg.Telemetry})
		if err != nil {
			return 0, 0, err
		}
		spec.PowerMaps = maps
	}
	// The feasibility bisection re-solves this spec 18 times with
	// nearby fill fractions: multigrid plus the continuation's start
	// keeps each solve at a few iterations.
	opts := cfg.solverOpts()
	if cont != nil {
		opts.InitialGuess = cont.Guess(fill)
	}
	res, err := spec.Solve(opts)
	if err != nil {
		return 0, 0, err
	}
	if cont != nil {
		cont.Add(fill, res.Field.T)
	}
	return units.KelvinToCelsius(res.MaxT()), growth, nil
}

func evaluateConventionalMin(cfg Config, tiers int) (*Evaluation, error) {
	fm := dummyfill.Default()
	var cont solver.Continuation
	mk := func(fill, growth, tMax float64, feasible bool) *Evaluation {
		return &Evaluation{
			Strategy: Conventional3D, Tiers: tiers,
			TMaxC: tMax, Feasible: feasible,
			FootprintPenalty: growth,
			DelayPenalty:     delayPenaltyFor(cfg, Conventional3D, growth, math.Max(0, fill-fm.FreeFill)),
			FillFraction:     fill,
		}
	}
	t0, g0, err := conventionalTMax(cfg, tiers, fm.FreeFill, &cont)
	if err != nil {
		return nil, err
	}
	if t0 <= cfg.TTargetC {
		return mk(fm.FreeFill, g0, t0, true), nil
	}
	tMaxFill, gMax, err := conventionalTMax(cfg, tiers, fm.MaxFill, &cont)
	if err != nil {
		return nil, err
	}
	if tMaxFill > cfg.TTargetC {
		return mk(fm.MaxFill, gMax, tMaxFill, false), nil
	}
	lo, hi := fm.FreeFill, fm.MaxFill
	best := mk(fm.MaxFill, gMax, tMaxFill, true)
	for i := 0; i < 16; i++ {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		tm, gm, err := conventionalTMax(cfg, tiers, mid, &cont)
		if err != nil {
			return nil, err
		}
		if tm <= cfg.TTargetC {
			hi = mid
			best = mk(mid, gm, tm, true)
		} else {
			lo = mid
		}
	}
	return best, nil
}

// EvaluateAtBudget evaluates a strategy with a fixed footprint-
// penalty budget and reports the resulting peak temperature — the
// fair-comparison mode of Fig. 9 ("an example design point at 2.8 %
// delay and 10 % area penalty"). Feasible indicates T ≤ target.
func EvaluateAtBudget(cfg Config, s Strategy, tiers int, areaBudget float64) (*Evaluation, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if tiers < 1 {
		return nil, fmt.Errorf("core: bad tier count %d", tiers)
	}
	if areaBudget < 0 {
		return nil, fmt.Errorf("core: negative area budget %g", areaBudget)
	}
	switch s {
	case Scaffolding, VerticalOnly:
		return evaluatePillarsAtBudget(cfg, s, tiers, areaBudget)
	case Conventional3D:
		fm := dummyfill.Default()
		fill := fm.FillAtAreaGrowth(areaBudget)
		tMax, growth, err := conventionalTMax(cfg, tiers, fill, nil)
		if err != nil {
			return nil, err
		}
		return &Evaluation{
			Strategy: Conventional3D, Tiers: tiers,
			TMaxC: tMax, Feasible: tMax <= cfg.TTargetC,
			FootprintPenalty: growth,
			DelayPenalty:     delayPenaltyFor(cfg, Conventional3D, growth, math.Max(0, fill-fm.FreeFill)),
			FillFraction:     fill,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", s)
	}
}

// evaluatePillarsAtBudget spends the area budget on pillars (coverage
// allocated ∝ local power density, as the placement algorithm does)
// and reports the temperature.
func evaluatePillarsAtBudget(cfg Config, s Strategy, tiers int, areaBudget float64) (*Evaluation, error) {
	geo := pillar.Default()
	targetMetal := areaBudget / geo.KeepoutFactor
	tier := cfg.Design.Tier
	beol := beolFor(s)
	alloc, err := pillar.NewAllocator(tier, cfg.NX, cfg.NY, tiers, beol, geo, cfg.MaxCoverage)
	if err != nil {
		return nil, err
	}
	// Find λ so the metal coverage mean matches the budget (monotone
	// — plain bisection without thermal solves).
	field := stack.NewPillarField(cfg.NX, cfg.NY)
	var metal float64
	if targetMetal > 0 {
		lo, hi := 0.0, 1.0
		for alloc.Fill(hi, nil, nil) < targetMetal*0.999 && hi <= 1e6 {
			hi *= 4
		}
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if alloc.Fill(mid, nil, nil) < targetMetal {
				lo = mid
			} else {
				hi = mid
			}
		}
		metal = alloc.Fill(hi, field, nil)
	}
	spec := &stack.Spec{
		DieW: tier.Die.W, DieH: tier.Die.H,
		Tiers: tiers, NX: cfg.NX, NY: cfg.NY,
		PowerMaps:     [][]float64{alloc.Power},
		BEOL:          beol,
		Pillars:       field,
		PillarK:       geo.EffectiveK(),
		Sink:          cfg.Sink,
		MemoryPerTier: true,
	}
	res, err := spec.Solve(cfg.solverOpts())
	if err != nil {
		return nil, err
	}
	tMax := units.KelvinToCelsius(res.MaxT())
	mean := math.Min(targetMetal, metal)
	return &Evaluation{
		Strategy: s, Tiers: tiers,
		TMaxC: tMax, Feasible: tMax <= cfg.TTargetC,
		FootprintPenalty: mean * geo.KeepoutFactor,
		DelayPenalty:     delayPenaltyFor(cfg, s, mean*geo.KeepoutFactor, 0),
		MeanCoverage:     mean,
	}, nil
}

// MaxTiersAtBudget returns the largest tier count in 1..maxN that the
// strategy keeps at or below the temperature target within the given
// footprint budget (0 when even one tier runs hot), together with the
// evaluations it solved, sorted by N.
//
// It bisects instead of scanning, so it runs at most ⌈log2(maxN+1)⌉
// solves. Bisection is exact only while T_max rises strictly with N,
// which makes the feasible tier counts a prefix of 1..maxN; the search
// checks that contract on the points it solved and returns an error if
// their T_max does not strictly rise with N.
func MaxTiersAtBudget(cfg Config, s Strategy, areaBudget float64, maxN int) (int, []*Evaluation, error) {
	if maxN < 1 {
		return 0, nil, fmt.Errorf("core: bad maxN %d", maxN)
	}
	// lo is feasible and hi is not; 0 and maxN+1 stand for the empty
	// stack and the first count past the search.
	lo, hi := 0, maxN+1
	var evals []*Evaluation
	for hi-lo > 1 {
		if err := cfg.ctxErr(); err != nil {
			return 0, nil, err
		}
		mid := (lo + hi) / 2
		e, err := EvaluateAtBudget(cfg, s, mid, areaBudget)
		if err != nil {
			return 0, nil, err
		}
		evals = append(evals, e)
		if e.Feasible {
			lo = mid
		} else {
			hi = mid
		}
	}
	sort.Slice(evals, func(a, b int) bool { return evals[a].Tiers < evals[b].Tiers })
	if err := checkRising(evals); err != nil {
		return 0, nil, err
	}
	return lo, evals, nil
}

// checkRising returns an error unless T_max rises strictly across
// evals, which are sorted by N.
func checkRising(evals []*Evaluation) error {
	for k := 1; k < len(evals); k++ {
		if prev, e := evals[k-1], evals[k]; !(e.TMaxC > prev.TMaxC) {
			return fmt.Errorf("core: %s T_max %g°C at N=%d does not exceed %g°C at N=%d; the tier search needs it to rise with N",
				e.Strategy, e.TMaxC, e.Tiers, prev.TMaxC, prev.Tiers)
		}
	}
	return nil
}

// SweepTiers evaluates the strategy at a fixed budget across tier
// counts 1..maxN — the Fig. 9 / Fig. 11 curves.
func SweepTiers(cfg Config, s Strategy, areaBudget float64, maxN int) ([]*Evaluation, error) {
	if maxN < 1 {
		return nil, fmt.Errorf("core: bad maxN %d", maxN)
	}
	var out []*Evaluation
	for n := 1; n <= maxN; n++ {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		e, err := EvaluateAtBudget(cfg, s, n, areaBudget)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
