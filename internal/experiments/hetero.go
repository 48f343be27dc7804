package experiments

import (
	"errors"

	"thermalscaffold/internal/design"
	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/pillar"
	"thermalscaffold/internal/power"
	"thermalscaffold/internal/sched"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/spectral"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/units"
)

// HeterogeneousResult is the mixed-design stack study.
type HeterogeneousResult struct {
	// TMaxPerTierC: each tier's pillars placed on its own hot units
	// (Gemmini pattern on Gemmini tiers, Rocket pattern on Rocket
	// tiers) — locally optimal, but the columns jog between tiers.
	TMaxPerTierC float64
	// TMaxAlignedC: one pattern (Gemmini's) reused on every tier —
	// suboptimal for the Rocket tiers, but the columns stay
	// continuous from top tier to heatsink.
	TMaxAlignedC float64
	// MisalignmentCostK = TMaxPerTierC − TMaxAlignedC: what breaking
	// column continuity costs.
	MisalignmentCostK float64
	Tiers             int
}

// Heterogeneous builds the mixed-design stack the paper's
// heterogeneous-tier discussion motivates: alternating Gemmini and
// Rocket tiers under scaffolding. The chip-scale lesson matches
// Observation 4c from the other side: a pillar is only as good as its
// continuous column to the heatsink. Placing each tier's pillars on
// its own hot spots breaks the columns at every tier boundary and
// runs 10–20 K hotter than keeping one aligned constellation — which
// is why the paper integrates pillars into the (vertically aligned)
// power delivery network and why misalignment tolerance matters for
// heterogeneous stacks. (The sub-µm tolerance itself is the fine-grid
// Misalignment experiment.)
func Heterogeneous(o Options, tiers int) (*HeterogeneousResult, error) {
	if tiers <= 0 {
		tiers = 8
	}
	if tiers%2 != 0 {
		return nil, errors.New("experiments: heterogeneous stack wants an even tier count")
	}
	grid := o.grid()
	gem := design.Gemmini()
	roc := design.Rocket()
	// Share the Gemmini die outline; rasterize Rocket's floorplan
	// onto it (its die is close in size — power is conserved by the
	// rasterizer over the overlapping area, and the mild crop is part
	// of the heterogeneity).
	gemPM := gem.Tier.PowerMap(grid, grid)
	rocPlan := roc.Tier.Clone()
	rocPlan.Die = gem.Tier.Die
	// Drop units that fall outside the shared outline.
	kept := rocPlan.Units[:0]
	for _, u := range rocPlan.Units {
		if gem.Tier.Die.Contains(u.Rect) {
			kept = append(kept, u)
		}
	}
	rocPlan.Units = kept
	rocPM := rocPlan.PowerMap(grid, grid)

	maps := make([][]float64, tiers)
	for t := 0; t < tiers; t++ {
		if t%2 == 0 {
			maps[t] = gemPM
		} else {
			maps[t] = rocPM
		}
	}
	run := func(fields []*stack.PillarField) (float64, error) {
		spec := &stack.Spec{
			DieW: gem.Tier.Die.W, DieH: gem.Tier.Die.H,
			Tiers: tiers, NX: grid, NY: grid,
			PowerMaps:      maps,
			BEOL:           stack.ScaffoldedBEOL(),
			PillarsPerTier: fields,
			PillarK:        pillar.Default().EffectiveK(),
			Sink:           heatsink.TwoPhase(),
			MemoryPerTier:  true,
		}
		res, err := spec.Solve(solverOpts())
		if err != nil {
			return 0, err
		}
		return units.KelvinToCelsius(res.MaxT()), nil
	}
	// Per-design fields at a 6 % metal budget each; the mismatched
	// variant reuses the Gemmini field everywhere (same total metal).
	gemField := coverageField(gemPM, grid, 0.06)
	rocField := coverageField(rocPM, grid, 0.06)
	perDesign := make([]*stack.PillarField, tiers)
	mismatched := make([]*stack.PillarField, tiers)
	for t := 0; t < tiers; t++ {
		mismatched[t] = gemField
		if t%2 == 0 {
			perDesign[t] = gemField
		} else {
			perDesign[t] = rocField
		}
	}
	perTier, err := run(perDesign)
	if err != nil {
		return nil, err
	}
	aligned, err := run(mismatched)
	if err != nil {
		return nil, err
	}
	return &HeterogeneousResult{
		TMaxPerTierC:      perTier,
		TMaxAlignedC:      aligned,
		MisalignmentCostK: perTier - aligned,
		Tiers:             tiers,
	}, nil
}

// coverageField allocates a mean-budget coverage proportional to the
// power map.
func coverageField(pm []float64, grid int, mean float64) *stack.PillarField {
	pf := stack.NewPillarField(grid, grid)
	total := 0.0
	for _, q := range pm {
		total += q
	}
	if total <= 0 {
		return pf
	}
	scale := mean * float64(len(pm)) / total
	for i, q := range pm {
		c := q * scale
		if c > 1 {
			c = 1
		}
		pf.Coverage[i] = c
	}
	return pf
}

// GatedTransientResult is the time-domain companion to Fig. 12.
type GatedTransientResult struct {
	// PeakRotatedC is the transient peak when the four sources take
	// turns (one active at a time, power gating).
	PeakRotatedC float64
	// SteadyAllOnC is the steady peak with all four sources active —
	// what the floorplan must survive without gating.
	SteadyAllOnC float64
	// GatingBenefitK is the reduction gating buys.
	GatingBenefitK float64
}

// GatedTransient simulates the Fig. 12 toy in the time domain: four
// MAC-class sources around a shared scaffolded pillar, gated so only
// one runs at a time and rotated at the trace period. Power gating
// plus scaffolding keeps the transient peak far below the all-on
// steady state — the co-design headroom Observation 5 points at.
func GatedTransient(tiers, n int) (*GatedTransientResult, error) {
	if tiers <= 0 {
		tiers = 4
	}
	if n <= 0 {
		n = 17
	}
	dom := 0.5e-6 * float64(n)
	q := units.WPerCm2ToWPerM2(400)
	c := n / 2
	src := n / 4
	blobAt := func(bi, bj int) []float64 {
		pm := make([]float64, n*n)
		for j := bj - 1; j <= bj; j++ {
			for i := bi - 1; i <= bi; i++ {
				pm[j*n+i] = q
			}
		}
		return pm
	}
	blobs := [][]float64{
		blobAt(src, src),
		blobAt(n-src, src),
		blobAt(src, n-src),
		blobAt(n-src, n-src),
	}
	allOn := make([]float64, n*n)
	for _, b := range blobs {
		for i, v := range b {
			allOn[i] += v
		}
	}
	pf := stack.NewPillarField(n, n)
	pf.Coverage[c*n+c] = 1.0
	mkSpec := func(pm []float64) *stack.Spec {
		return &stack.Spec{
			DieW: dom, DieH: dom, Tiers: tiers, NX: n, NY: n,
			PowerMaps:     [][]float64{pm},
			BEOL:          stack.ScaffoldedBEOL(),
			Pillars:       pf,
			Sink:          heatsink.TwoPhase(),
			MemoryPerTier: true,
		}
	}
	steady, err := mkSpec(allOn).Solve(solverOpts())
	if err != nil {
		return nil, err
	}
	// Transient rotation through the four gated sources.
	spec := mkSpec(blobs[0])
	p, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	init := make([]float64, len(p.Q))
	amb := spec.Sink.Ambient()
	for i := range init {
		init[i] = amb
	}
	tr, err := solver.NewTransient(p, init, solverOpts())
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	tau := sched.ThermalTimeConstant(spec)
	period := power.MatmulTrace().Period()
	if period > tau {
		period = tau // keep the rotation in the smoothing regime
	}
	dt := period / 4
	peak := 0.0
	for cycle := 0; cycle < 12; cycle++ {
		if cycle > 0 {
			rot := mkSpec(blobs[cycle%4])
			pr, _, err := rot.Build()
			if err != nil {
				return nil, err
			}
			if err := tr.SetSources(pr.Q); err != nil {
				return nil, err
			}
		}
		for s := 0; s < 4; s++ {
			if err := tr.Step(dt); err != nil {
				return nil, err
			}
			if t := tr.MaxField(); t > peak {
				peak = t
			}
		}
	}
	out := &GatedTransientResult{
		PeakRotatedC: units.KelvinToCelsius(peak),
		SteadyAllOnC: units.KelvinToCelsius(steady.MaxT()),
	}
	out.GatingBenefitK = out.SteadyAllOnC - out.PeakRotatedC
	return out, nil
}

// CrossCheckResult compares the iterative finite-volume and spectral
// direct solvers on the same pillar-free stack.
type CrossCheckResult struct {
	FVMPeakC      float64
	SpectralPeakC float64
	DeltaK        float64
}

// SolverCrossCheck mirrors the paper's Fig. 6 step of
// cross-referencing PACT results against COMSOL and Cadence Celsius:
// the 12-tier conventional Gemmini stack solved by both backends.
func SolverCrossCheck(o Options) (*CrossCheckResult, error) {
	grid := o.grid()
	d := design.Gemmini()
	spec := &stack.Spec{
		DieW: d.Tier.Die.W, DieH: d.Tier.Die.H,
		Tiers: 12, NX: grid, NY: grid,
		PowerMaps:     [][]float64{d.Tier.PowerMap(grid, grid)},
		BEOL:          stack.ConventionalBEOL(),
		Sink:          heatsink.TwoPhase(),
		MemoryPerTier: true,
	}
	// solverOptsTol carries the 80000 iteration cap the bare literal
	// here used to drop: at 1e-10 the solve needs more headroom than
	// the solver's 20000 default.
	res, err := spec.Solve(solverOptsTol(1e-10))
	if err != nil {
		return nil, err
	}
	dz, kLat, kVert, q, err := spec.LayeredView()
	if err != nil {
		return nil, err
	}
	sp := &spectral.Problem{
		LX: spec.DieW, LY: spec.DieH, NX: grid, NY: grid,
		DZ: dz, KLat: kLat, KVert: kVert, Q: q,
		SinkH: spec.Sink.H, SinkT: spec.Sink.Ambient(),
	}
	sf, err := sp.Solve()
	if err != nil {
		return nil, err
	}
	out := &CrossCheckResult{
		FVMPeakC:      units.KelvinToCelsius(res.MaxT()),
		SpectralPeakC: units.KelvinToCelsius(sf.Max()),
	}
	out.DeltaK = out.FVMPeakC - out.SpectralPeakC
	if out.DeltaK < 0 {
		out.DeltaK = -out.DeltaK
	}
	return out, nil
}
