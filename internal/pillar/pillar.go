// Package pillar implements thermal pillar design and placement
// (Sec. III-A): the geometry and effective conductivity of a single
// pillar — a maximally via-stacked column of BEOL metal integrated
// with the power delivery network — and the thermally-driven
// placement algorithm that decides how many pillars each heat source
// needs, at what pitch, and where they go around hard macros.
package pillar

import (
	"context"
	"errors"
	"fmt"
	"math"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/floorplan"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
	"thermalscaffold/internal/units"
)

// Geometry describes a single pillar.
type Geometry struct {
	// FootprintSide is the pillar's square footprint edge (m). The
	// paper chooses 100 nm × 100 nm to balance size-dependent
	// conductivity loss against electrical/mechanical impact on
	// surrounding transistors.
	FootprintSide float64
	// KeepoutFactor converts pillar metal area into consumed
	// floorplan area (spacing to transistors and routing). Calibrated
	// so the 12-tier Gemmini placement lands at the paper's 10 %
	// footprint penalty.
	KeepoutFactor float64
}

// Default returns the paper's pillar geometry.
func Default() Geometry {
	return Geometry{FootprintSide: 100e-9, KeepoutFactor: 1.05}
}

// EffectiveK returns the pillar's effective vertical thermal
// conductivity (W/m/K). The paper's COMSOL analysis of the
// Innovus-generated structure gives 105 W/m/K at a 100 nm footprint;
// the size dependence follows the copper model ([29]) because the
// column is dimension-limited copper.
func (g Geometry) EffectiveK() float64 {
	return materials.CopperConductivity(g.FootprintSide)
}

// Area returns one pillar's metal footprint area (m²).
func (g Geometry) Area() float64 { return g.FootprintSide * g.FootprintSide }

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if g.FootprintSide <= 0 {
		return errors.New("pillar: non-positive footprint")
	}
	if g.KeepoutFactor < 1 {
		return fmt.Errorf("pillar: keepout factor %g below 1", g.KeepoutFactor)
	}
	return nil
}

// Request describes a placement problem: cool the given design at
// the given tier count below TTargetC using pillars (and whichever
// BEOL dielectric plan the caller selected).
type Request struct {
	Design *design.Design
	Tiers  int
	Sink   heatsink.Model
	// TTargetC is the junction temperature limit (°C), e.g. 125.
	TTargetC float64
	BEOL     stack.BEOLProps
	Geometry Geometry
	// NX, NY is the placement/thermal grid resolution (default 16×16).
	NX, NY int
	// MaxCoverage caps per-cell pillar coverage (default 0.5 — beyond
	// that the region is no longer routable logic).
	MaxCoverage float64
	// Tol is the thermal solver tolerance (default 1e-6).
	Tol float64
	// Ctx, when non-nil, cancels the placement: the bisection checks
	// it before every outer iteration and the inner thermal solves
	// check it per PCG iteration, so Place returns within one solver
	// iteration of cancellation. The returned error wraps ctx.Err().
	Ctx context.Context
	// Telemetry, when non-nil, collects solve traces and counters from
	// every thermal solve the placement runs (see internal/telemetry).
	Telemetry *telemetry.Collector
}

func (r *Request) withDefaults() (*Request, error) {
	out := *r
	if out.Design == nil {
		return nil, errors.New("pillar: nil design")
	}
	if err := out.Design.Validate(); err != nil {
		return nil, err
	}
	if out.Tiers < 1 {
		return nil, fmt.Errorf("pillar: bad tier count %d", out.Tiers)
	}
	if out.TTargetC <= out.Sink.AmbientC {
		return nil, fmt.Errorf("pillar: target %g°C at or below sink ambient %g°C", out.TTargetC, out.Sink.AmbientC)
	}
	if out.NX < 1 {
		out.NX = 16
	}
	if out.NY < 1 {
		out.NY = 16
	}
	if out.MaxCoverage <= 0 {
		out.MaxCoverage = 0.5
	}
	if out.Tol <= 0 {
		out.Tol = 1e-6
	}
	if out.Geometry == (Geometry{}) {
		out.Geometry = Default()
	}
	if err := out.Geometry.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// UnitPlacement records the per-heat-source outcome, matching the
// paper's algorithm outputs: the minimum thermally required pillar
// count P_min and the resulting pitch (A/P_min)^0.5.
type UnitPlacement struct {
	Unit     string
	Coverage float64 // pillar area fraction within the unit
	Pillars  int     // P_min
	Pitch    float64 // m
}

// Placement is the result of the placement algorithm.
type Placement struct {
	// Field is the effective coverage seen by the chip-scale thermal
	// model (metal coverage discounted by macro access efficiency).
	Field *stack.PillarField
	// MetalField is the physical pillar metal coverage used for
	// footprint accounting.
	MetalField *stack.PillarField
	Units      []UnitPlacement
	// MeanCoverage is the die-average pillar metal fraction.
	MeanCoverage float64
	// FootprintPenalty is the fractional floorplan area consumed
	// (coverage × keepout).
	FootprintPenalty float64
	// TotalPillars across the die.
	TotalPillars int
	// TMaxC is the achieved peak temperature (°C).
	TMaxC float64
	// Lambda is the converged intensity of the coverage profile.
	Lambda float64
	// Feasible reports whether the target was met within MaxCoverage.
	Feasible bool
}

// SpreadingLength returns the lateral healing length λ (m) of the
// tier sheet above a pillar array: the distance over which heat
// generated away from a pillar column can still reach it laterally
// before the vertical escape path dominates. λ = √(G_s/g) with G_s
// the per-tier lateral sheet conductance (Σ k∥·t over the device
// silicon and both BEOL groups, doubled when a memory sub-layer is
// present) and g the per-area conductance into the pillar columns
// (column density × pillar k over the mean descent depth).
//
// This is the quantity Fig. 3 measures: with ultra-low-k upper
// layers a pillar cools only a few µm around itself; the thermal
// dielectric stretches λ by several times, letting one pillar serve
// heat sources tens of µm away.
func SpreadingLength(beol stack.BEOLProps, tiers int, columnDensity, kPillar float64, memoryPerTier bool) float64 {
	if columnDensity <= 0 || tiers < 1 {
		return 0
	}
	const (
		tSi    = 100e-9
		kSiLat = 65.0
		tLower = 700e-9
		tUpper = 240e-9
	)
	gs := tSi*kSiLat + tLower*beol.LowerKLat + tUpper*beol.UpperKLat
	tierT := tSi + tLower + tUpper
	if memoryPerTier {
		gs *= 2
		tierT *= 2
	}
	tDown := float64(tiers) / 2 * tierT
	g := columnDensity * kPillar / tDown
	return math.Sqrt(gs / g)
}

// finEfficiency returns tanh(x)/x — the classic fin efficiency of a
// heat source strip of half-width d feeding sinks at its edges
// through a sheet with healing length lambda.
func finEfficiency(d, lambda float64) float64 {
	if d <= 0 {
		return 1
	}
	if lambda <= 0 {
		return 0
	}
	x := d / lambda
	if x < 1e-6 {
		return 1
	}
	return math.Tanh(x) / x
}

// macroHalfWidth returns the mean half-width (m) of the design's
// hard macros — the distance macro-interior heat must travel
// laterally to reach channel pillars.
func macroHalfWidth(f *floorplan.Floorplan) float64 {
	macros := f.Macros()
	if len(macros) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range macros {
		sum += math.Min(m.Rect.W, m.Rect.H) / 2
	}
	return sum / float64(len(macros))
}

// Allocator is the Sec. III-A coverage-allocation rule on one tier's
// grid. At intensity λ a cell with power density q gets channel
// coverage min(λ·q/qMax, MaxCoverage) on its non-macro share 1−m:
// hard macro interiors are off-limits, but the routing channels
// between banked SRAM macros are available. Heat generated inside a
// macro reaches channel pillars laterally at the fin efficiency η set
// by the tier sheet's healing length — the thermal dielectric's main
// contribution (Fig. 3) — so the thermal model sees the metal as
// col·((1−m) + m·η). Place bisects λ on the thermal solve; core's
// budget mode bisects it on the mean metal coverage.
type Allocator struct {
	// Power is the tier's power map (W/m²) and QMax its largest cell.
	Power []float64
	QMax  float64

	macroFrac              []float64
	halfW, kPillar, maxCov float64
	beol                   stack.BEOLProps
	tiers                  int
}

// NewAllocator prepares the allocation rule for a tier floorplan on
// an nx×ny grid of a stack with the given tier count and BEOL
// (memory sub-layer on every tier, as every stack here has).
func NewAllocator(tier *floorplan.Floorplan, nx, ny, tiers int, beol stack.BEOLProps, g Geometry, maxCoverage float64) (*Allocator, error) {
	a := &Allocator{
		Power:     tier.PowerMap(nx, ny),
		macroFrac: tier.MacroAreaFraction(nx, ny),
		halfW:     macroHalfWidth(tier),
		kPillar:   g.EffectiveK(),
		maxCov:    maxCoverage,
		beol:      beol,
		tiers:     tiers,
	}
	for _, q := range a.Power {
		a.QMax = math.Max(a.QMax, q)
	}
	if a.QMax <= 0 {
		return nil, errors.New("pillar: design has no power")
	}
	return a, nil
}

// Fill writes the allocation at intensity lambda and returns the
// die-mean pillar metal coverage. A non-nil eff receives the
// effective coverage the thermal model sees; a non-nil metal receives
// the physical metal coverage used for footprint accounting. Fill
// allocates nothing, and with a nil eff it skips the fin-efficiency
// work, so a bisection on the mean alone stays cheap.
func (a *Allocator) Fill(lambda float64, eff, metal *stack.PillarField) float64 {
	total := 0.0
	for i, q := range a.Power {
		m := a.macroFrac[i]
		col := math.Min(lambda*q/a.QMax, a.maxCov) * (1 - m)
		total += col
		if metal != nil {
			metal.Coverage[i] = col
		}
		if eff != nil {
			eta := finEfficiency(a.halfW, SpreadingLength(a.beol, a.tiers, col, a.kPillar, true))
			eff.Coverage[i] = col * ((1 - m) + m*eta)
		}
	}
	return total / float64(len(a.Power))
}

// Place runs the Sec. III-A placement algorithm. Coverage is
// allocated proportionally to local power density (the "uniform
// pillar covering" of each heat source), scaled by a global intensity
// λ found by bisection on the full-stack thermal simulation, with
// hard macros excluded (pillars must be placed outside macro
// boundaries — their heat is carried laterally to neighboring pillars
// by the upper BEOL layers).
func Place(req Request) (*Placement, error) {
	r, err := (&req).withDefaults()
	if err != nil {
		return nil, err
	}
	tier := r.Design.Tier
	alloc, err := NewAllocator(tier, r.NX, r.NY, r.Tiers, r.BEOL, r.Geometry, r.MaxCoverage)
	if err != nil {
		return nil, err
	}

	// One pool serves the whole bisection (at most 12 solves on one
	// grid).
	eng := solver.NewEngine(0)
	defer eng.Close()

	var cont solver.Continuation
	solveAt := func(lambda float64) (float64, *stack.PillarField, *stack.PillarField, error) {
		eff, metal := stack.NewPillarField(r.NX, r.NY), stack.NewPillarField(r.NX, r.NY)
		alloc.Fill(lambda, eff, metal)
		spec := &stack.Spec{
			DieW: tier.Die.W, DieH: tier.Die.H,
			Tiers: r.Tiers, NX: r.NX, NY: r.NY,
			PowerMaps:     [][]float64{alloc.Power},
			BEOL:          r.BEOL,
			Pillars:       eff,
			PillarK:       r.Geometry.EffectiveK(),
			Sink:          r.Sink,
			MemoryPerTier: true,
		}
		// The bisection re-solves the same stack with nearby coverage
		// fields, each solve starting from the continuation's guess, so
		// the default multigrid takes a few iterations per solve.
		res, err := spec.Solve(solver.Options{
			Tol: r.Tol, MaxIter: 80000, InitialGuess: cont.Guess(lambda),
			Ctx: r.Ctx, Telemetry: r.Telemetry, Engine: eng,
		})
		if err != nil {
			return 0, nil, nil, err
		}
		cont.Add(lambda, res.Field.T)
		return units.KelvinToCelsius(res.MaxT()), eff, metal, nil
	}

	// No pillars at all?
	t0, eff0, metal0, err := solveAt(0)
	if err != nil {
		return nil, err
	}
	if t0 <= r.TTargetC {
		return finishPlacement(r, eff0, metal0, t0, 0, true), nil
	}
	// Max coverage everywhere (λ high enough to saturate).
	lambdaHi := r.MaxCoverage * alloc.QMax / minPositive(alloc.Power) // saturates every powered cell
	if math.IsInf(lambdaHi, 0) || lambdaHi <= 0 {
		lambdaHi = 1e3
	}
	lo, hi := 0.0, lambdaHi
	var tBest, lamBest float64
	var effBest, metalBest *stack.PillarField
	for iter := 0; iter < 18 && (hi-lo) > 1e-3*lambdaHi; iter++ {
		if r.Ctx != nil {
			if cerr := r.Ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("pillar: placement bisection cancelled after %d iterations: %w", iter, cerr)
			}
		}
		mid := (lo + hi) / 2
		tm, em, mm, err := solveAt(mid)
		if err != nil {
			return nil, err
		}
		if tm <= r.TTargetC {
			hi = mid
			tBest, effBest, metalBest, lamBest = tm, em, mm, mid
			continue
		}
		lo = mid
		if iter == 0 {
			// T_max falls as λ rises, so the saturated end is solved
			// only when the first midpoint runs hot: the answer then
			// lies above λHi/2, if λHi meets the target at all.
			tHi, effHi, metalHi, err := solveAt(lambdaHi)
			if err != nil {
				return nil, err
			}
			if tHi > r.TTargetC {
				// Even saturated coverage cannot meet the target.
				return finishPlacement(r, effHi, metalHi, tHi, lambdaHi, false), nil
			}
			tBest, effBest, metalBest, lamBest = tHi, effHi, metalHi, lambdaHi
		}
	}
	return finishPlacement(r, effBest, metalBest, tBest, lamBest, true), nil
}

func finishPlacement(r *Request, eff, metal *stack.PillarField, tMaxC, lambda float64, feasible bool) *Placement {
	tier := r.Design.Tier
	dieArea := tier.Die.Area()
	cellArea := dieArea / float64(r.NX*r.NY)
	mean := metal.Mean()
	p := &Placement{
		Field:            eff,
		MetalField:       metal,
		MeanCoverage:     mean,
		FootprintPenalty: mean * r.Geometry.KeepoutFactor,
		TMaxC:            tMaxC,
		Lambda:           lambda,
		Feasible:         feasible,
	}
	pillarArea := r.Geometry.Area()
	// Per-unit accounting: coverage within each unit → P_min → pitch.
	for _, u := range tier.Units {
		var covSum float64
		var cells int
		for j := 0; j < r.NY; j++ {
			for i := 0; i < r.NX; i++ {
				cx := tier.Die.X + (float64(i)+0.5)*tier.Die.W/float64(r.NX)
				cy := tier.Die.Y + (float64(j)+0.5)*tier.Die.H/float64(r.NY)
				if u.Rect.ContainsPoint(cx, cy) {
					covSum += metal.Coverage[j*r.NX+i]
					cells++
				}
			}
		}
		if cells == 0 {
			continue
		}
		cov := covSum / float64(cells)
		metal := cov * float64(cells) * cellArea
		pMin := int(math.Ceil(metal / pillarArea))
		up := UnitPlacement{Unit: u.Name, Coverage: cov, Pillars: pMin}
		if pMin > 0 {
			up.Pitch = math.Sqrt(u.Rect.Area() / float64(pMin))
		}
		p.Units = append(p.Units, up)
		p.TotalPillars += pMin
	}
	return p
}

func minPositive(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x > 0 && x < m {
			m = x
		}
	}
	return m
}
