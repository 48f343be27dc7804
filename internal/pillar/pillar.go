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
	// MemoryPerTier mirrors stack.Spec (default true).
	NoMemoryPerTier bool
	// Ctx, when non-nil, cancels the placement: the bisection checks
	// it before every outer iteration and the inner thermal solves
	// check it per PCG iteration, so Place returns within one solver
	// iteration of cancellation. The returned error wraps ctx.Err().
	Ctx context.Context
	// Telemetry, when non-nil, collects solve traces and counters from
	// every thermal solve the placement runs (see internal/telemetry).
	Telemetry *telemetry.Collector
	// Engine, when non-nil, supplies a persistent solver worker pool
	// shared by every thermal solve this request issues. Place and
	// RefineFill run ~20 same-sized solves back to back; without an
	// engine each one builds and tears down its own pool. When nil,
	// those loops create a private engine for their own duration.
	// Results are bitwise identical either way (see solver.Engine).
	Engine *solver.Engine
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

// FinEfficiency returns tanh(x)/x — the classic fin efficiency of a
// heat source strip of half-width d feeding sinks at its edges
// through a sheet with healing length lambda.
func FinEfficiency(d, lambda float64) float64 {
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

// MacroHalfWidth returns the mean half-width (m) of the design's
// hard macros — the distance macro-interior heat must travel
// laterally to reach channel pillars.
func MacroHalfWidth(f *floorplan.Floorplan) float64 {
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
	pm := tier.PowerMap(r.NX, r.NY)
	qMax := 0.0
	for _, q := range pm {
		if q > qMax {
			qMax = q
		}
	}
	if qMax <= 0 {
		return nil, errors.New("pillar: design has no power")
	}
	// Pillars may only occupy the non-macro share of each cell: hard
	// macro interiors are off-limits (Sec. III-A), but the routing
	// channels between banked SRAM macros are available. Heat
	// generated inside a macro reaches channel pillars laterally at
	// the fin efficiency set by the tier sheet's healing length — the
	// thermal dielectric's main contribution (Fig. 3).
	macroFrac := tier.MacroAreaFraction(r.NX, r.NY)
	halfW := MacroHalfWidth(tier)

	// One pool serves the whole bisection (~20 solves on one grid).
	eng := r.Engine
	if eng == nil {
		eng = solver.NewEngine(0)
		defer eng.Close()
	}

	// fieldFor returns the effective field seen by the thermal solver
	// and the physical metal field used for footprint accounting.
	fieldFor := func(lambda float64) (eff, metal *stack.PillarField) {
		eff = stack.NewPillarField(r.NX, r.NY)
		metal = stack.NewPillarField(r.NX, r.NY)
		for i, q := range pm {
			m := macroFrac[i]
			fCh := math.Min(lambda*q/qMax, r.MaxCoverage)
			colDensity := fCh * (1 - m)
			metal.Coverage[i] = colDensity
			lam := SpreadingLength(r.BEOL, r.Tiers, colDensity, r.Geometry.EffectiveK(), !r.NoMemoryPerTier)
			eta := FinEfficiency(halfW, lam)
			eff.Coverage[i] = colDensity * ((1 - m) + m*eta)
		}
		return eff, metal
	}

	var lastField []float64
	solveAt := func(lambda float64) (float64, *stack.PillarField, *stack.PillarField, error) {
		eff, metal := fieldFor(lambda)
		spec := &stack.Spec{
			DieW: tier.Die.W, DieH: tier.Die.H,
			Tiers: r.Tiers, NX: r.NX, NY: r.NY,
			PowerMaps:     [][]float64{pm},
			BEOL:          r.BEOL,
			Pillars:       eff,
			PillarK:       r.Geometry.EffectiveK(),
			Sink:          r.Sink,
			MemoryPerTier: !r.NoMemoryPerTier,
		}
		// The bisection re-solves the same stack ~20 times with nearby
		// coverage fields: multigrid keeps each warm-started solve at a
		// handful of iterations regardless of grid resolution.
		res, err := spec.Solve(solver.Options{
			Tol: r.Tol, MaxIter: 80000, Precond: solver.Multigrid,
			InitialGuess: lastField, Ctx: r.Ctx, Telemetry: r.Telemetry,
			Engine: eng,
		})
		if err != nil {
			return 0, nil, nil, err
		}
		lastField = res.Field.T
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
	lambdaHi := r.MaxCoverage * qMax / minPositive(pm) // saturates every powered cell
	if math.IsInf(lambdaHi, 0) || lambdaHi <= 0 {
		lambdaHi = 1e3
	}
	tHi, effHi, metalHi, err := solveAt(lambdaHi)
	if err != nil {
		return nil, err
	}
	if tHi > r.TTargetC {
		// Even saturated coverage cannot meet the target.
		return finishPlacement(r, effHi, metalHi, tHi, lambdaHi, false), nil
	}
	lo, hi := 0.0, lambdaHi
	tBest, effBest, metalBest, lamBest := tHi, effHi, metalHi, lambdaHi
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
		} else {
			lo = mid
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

// Point is a pillar location on the die.
type Point struct{ X, Y float64 }

// GridPlace returns discrete pillar coordinates in a grid at the
// given pitch within region, skipping any point inside a macro —
// the paper places P_min pillars between macro gaps and in a grid at
// the required pitch within each heat source.
func GridPlace(region floorplan.Rect, pitch float64, macros []floorplan.Rect) []Point {
	if pitch <= 0 {
		return nil
	}
	var pts []Point
	for y := region.Y + pitch/2; y < region.MaxY(); y += pitch {
		for x := region.X + pitch/2; x < region.MaxX(); x += pitch {
			inMacro := false
			for _, m := range macros {
				if m.ContainsPoint(x, y) {
					inMacro = true
					break
				}
			}
			if !inMacro {
				pts = append(pts, Point{X: x, Y: y})
			}
		}
	}
	return pts
}

// FieldFromPoints rasterizes discrete pillars (each of the geometry's
// footprint area) onto a coverage field over the die.
func FieldFromPoints(pts []Point, die floorplan.Rect, nx, ny int, g Geometry) *stack.PillarField {
	pf := stack.NewPillarField(nx, ny)
	cellArea := die.Area() / float64(nx*ny)
	frac := g.Area() / cellArea
	for _, p := range pts {
		i := int((p.X - die.X) / die.W * float64(nx))
		j := int((p.Y - die.Y) / die.H * float64(ny))
		if i < 0 || i >= nx || j < 0 || j >= ny {
			continue
		}
		pf.Coverage[j*nx+i] = math.Min(pf.Coverage[j*nx+i]+frac, 1)
	}
	return pf
}
