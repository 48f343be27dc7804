package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/telemetry"
)

// Study parameters: the regression fidelity of the paper experiments
// (12×12 grid, no scheduling solves), the paper's junction limit, the
// Fig. 9 design point (10 % area budget) and its tier range.
const (
	flowGrid   = 12
	flowLimitC = 125
	flowBudget = 0.10
	flowMaxN   = 16
)

// paperflow runs the paper's evaluation back to back. One round is one
// pass over the three designs, studying each in a seeded order: the
// minimum-penalty scaffolding placement at the design's paper tier
// count (a Table I cell) and the supported tier count of both cooling
// strategies at the Fig. 9 design point.
type paperflow struct {
	rng  *rand.Rand
	cfgs []core.Config
	tmax map[string]float64 // design/strategy/tiers → first T_max seen
}

func newPaperflow(seed int64) system {
	return &paperflow{rng: rand.New(rand.NewPCG(uint64(seed), 0)), tmax: map[string]float64{}}
}

func (p *paperflow) setup(tel *telemetry.Collector) error {
	for _, d := range design.All() {
		cfg := core.Config{
			Design: d, Sink: heatsink.TwoPhase(),
			TTargetC: flowLimitC, NX: flowGrid, NY: flowGrid, TaskSpread: -1,
			Telemetry: tel,
		}
		// The one-tier and the paper's stack of both strategies: design
		// validation, power maps and first solves, before any study is
		// timed.
		for _, s := range []core.Strategy{core.Conventional3D, core.Scaffolding} {
			for _, n := range []int{1, d.Paper.ScaffoldTiers} {
				if _, err := core.EvaluateAtBudget(cfg, s, n, flowBudget); err != nil {
					return fmt.Errorf("%s: %w", d.Name, err)
				}
			}
		}
		p.cfgs = append(p.cfgs, cfg)
	}
	return nil
}

func (p *paperflow) measure(deadline time.Time) []op {
	var ops []op
	for time.Now().Before(deadline) {
		// Only the order depends on the seed: every seed does the same
		// work.
		p.rng.Shuffle(len(p.cfgs), func(a, b int) { p.cfgs[a], p.cfgs[b] = p.cfgs[b], p.cfgs[a] })
		t0 := time.Now()
		o := op{n: len(p.cfgs)}
		for _, cfg := range p.cfgs {
			if err := p.study(cfg); err != nil {
				o.failed++
				if o.err == nil {
					o.err = err
				}
			}
		}
		o.latency = time.Since(t0)
		ops = append(ops, o)
	}
	return ops
}

// study runs one design study and checks its internal consistency.
func (p *paperflow) study(cfg core.Config) error {
	d := cfg.Design
	place, err := core.EvaluateMinPenalty(cfg, core.Scaffolding, d.Paper.ScaffoldTiers)
	if err != nil {
		return err
	}
	nScaf, evScaf, err := core.MaxTiersAtBudget(cfg, core.Scaffolding, flowBudget, flowMaxN)
	if err != nil {
		return err
	}
	nConv, evConv, err := core.MaxTiersAtBudget(cfg, core.Conventional3D, flowBudget, flowMaxN)
	if err != nil {
		return err
	}

	if !place.Feasible || place.TMaxC > flowLimitC || !(place.FootprintPenalty > 0 && place.FootprintPenalty < 1) {
		return fmt.Errorf("%s: placement infeasible or out of range: T=%.4f °C (limit %v), footprint %.4f",
			d.Name, place.TMaxC, flowLimitC, place.FootprintPenalty)
	}
	if nScaf <= nConv {
		return fmt.Errorf("%s: scaffolding supports %d tiers, conventional %d — scaffolding must support more", d.Name, nScaf, nConv)
	}
	for _, evals := range [][]*core.Evaluation{evScaf, evConv} {
		for k, e := range evals {
			if k > 0 && !(e.TMaxC > evals[k-1].TMaxC) {
				return fmt.Errorf("%s/%s: T_max not increasing with tiers at N=%d", d.Name, e.Strategy, e.Tiers)
			}
			if err := p.repeatable(fmt.Sprintf("%s/%s/%d", d.Name, e.Strategy, e.Tiers), e.TMaxC); err != nil {
				return err
			}
		}
	}
	return nil
}

// repeatable checks that a design point evaluates to the same bits
// every time the flow meets it (the solver's determinism contract).
func (p *paperflow) repeatable(key string, t float64) error {
	if prev, ok := p.tmax[key]; ok && math.Float64bits(prev) != math.Float64bits(t) {
		return fmt.Errorf("%s: T_max %v differs from earlier %v", key, t, prev)
	}
	p.tmax[key] = t
	return nil
}

func (p *paperflow) counters() (map[string]int64, error) { return nil, nil }

// verify is a no-op: every study checks its own answers as it runs.
func (p *paperflow) verify() error { return nil }

func (p *paperflow) close() {}
