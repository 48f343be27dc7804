// Package stack assembles full 3D-IC thermal problems: N stacked
// tiers of (device silicon + lower BEOL + upper BEOL) over a handle
// wafer, cooled from below by a heatsink — the geometry of the
// paper's Fig. 1. The output is a solver.Problem ready for the
// finite-volume solver, with per-tier power maps painted into the
// device layers, pillar coverage painted into the BEOL layers, and
// dummy-fill conductivity boosts applied uniformly.
package stack

import (
	"errors"
	"fmt"

	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/pdk"
	"thermalscaffold/internal/solver"
)

// BEOLProps carries the homogenized conductivities of the two BEOL
// layer groups (from internal/beol or the paper's Fig. 7a).
type BEOLProps struct {
	LowerKVert, LowerKLat float64 // V0–M7
	UpperKVert, UpperKLat float64 // M8/V8/M9
}

// ConventionalBEOL returns this repository's numerically homogenized
// conventional (ultra-low-k everywhere) BEOL. Values were produced by
// beol.LowerGroupSpec / beol.UpperGroupSpec at the default 640 nm /
// 8 nm slice resolution and are frozen here so stack construction
// does not re-run the homogenization solves. Paper Fig. 7a:
// 0.31/5.47 and 6.9/13.6.
func ConventionalBEOL() BEOLProps {
	return BEOLProps{LowerKVert: 0.397, LowerKLat: 5.59, UpperKVert: 13.3, UpperKLat: 16.4}
}

// ScaffoldedBEOL returns the homogenized BEOL with the thermal
// dielectric in M8/V8/M9 (conservative through-plane film). Paper
// Fig. 7a: 93.59/101.73 for the upper group.
func ScaffoldedBEOL() BEOLProps {
	return BEOLProps{LowerKVert: 0.397, LowerKLat: 5.59, UpperKVert: 48.8, UpperKLat: 120}
}

// PaperBEOL returns the paper's published Fig. 7a values.
func PaperBEOL(scaffolded bool) BEOLProps {
	if scaffolded {
		return BEOLProps{LowerKVert: 0.31, LowerKLat: 5.47, UpperKVert: 93.59, UpperKLat: 101.73}
	}
	return BEOLProps{LowerKVert: 0.31, LowerKLat: 5.47, UpperKVert: 6.9, UpperKLat: 13.6}
}

// Label returns a short tag for the BEOL variant, keyed on whether
// the upper layers carry the thermal dielectric.
func (b BEOLProps) Label() string {
	if b.UpperKLat >= 50 {
		return "thermal-dielectric"
	}
	return "ultra-low-k"
}

// Validate checks positivity.
func (b BEOLProps) Validate() error {
	for _, v := range []float64{b.LowerKVert, b.LowerKLat, b.UpperKVert, b.UpperKLat} {
		if v <= 0 {
			return fmt.Errorf("stack: non-positive BEOL conductivity in %+v", b)
		}
	}
	return nil
}

// PillarField is a per-cell pillar coverage fraction over the die's
// NX×NY in-plane grid (row-major, x fastest). Coverage boosts the
// vertical (and, weakly, lateral) conductivity of every BEOL cell in
// that column, on every tier — pillars are vertically aligned
// structures integrated with the power delivery network.
type PillarField struct {
	NX, NY   int
	Coverage []float64 // fraction ∈ [0,1] per cell
}

// NewPillarField allocates a zero-coverage field.
func NewPillarField(nx, ny int) *PillarField {
	return &PillarField{NX: nx, NY: ny, Coverage: make([]float64, nx*ny)}
}

// Mean returns the area-mean coverage.
func (p *PillarField) Mean() float64 {
	if len(p.Coverage) == 0 {
		return 0
	}
	s := 0.0
	for _, c := range p.Coverage {
		s += c
	}
	return s / float64(len(p.Coverage))
}

// Validate checks bounds.
func (p *PillarField) Validate() error {
	if len(p.Coverage) != p.NX*p.NY {
		return fmt.Errorf("stack: pillar field has %d cells, want %d", len(p.Coverage), p.NX*p.NY)
	}
	for i, c := range p.Coverage {
		if c < 0 || c > 1 {
			return fmt.Errorf("stack: pillar coverage %g at cell %d outside [0,1]", c, i)
		}
	}
	return nil
}

// Spec fully describes a 3D-IC thermal simulation.
type Spec struct {
	DieW, DieH float64 // m
	Tiers      int
	NX, NY     int
	// PowerMaps holds one W/m² map (NX·NY, row-major) per tier,
	// bottom tier first. A single entry is replicated to all tiers.
	PowerMaps [][]float64
	BEOL      BEOLProps
	// Pillars, when non-nil, is the scaffolding pillar field applied
	// to every tier (pillars are vertically aligned columns).
	Pillars *PillarField
	// PillarsPerTier, when non-nil, gives each tier its own pillar
	// field (len Tiers) — used for the pillar-misalignment study
	// (Observation 4c). Takes precedence over Pillars.
	PillarsPerTier []*PillarField
	// PillarK is the effective vertical conductivity of pillar metal
	// (W/m/K); default 105 (Sec. III-A, 100 nm × 100 nm footprint).
	PillarK float64
	// ExtraBEOLKVert adds uniform vertical conductivity to both BEOL
	// groups — the thermal dummy-via boost of the conventional flow.
	ExtraBEOLKVert float64
	Sink           heatsink.Model
	// CellsPerGroup controls z resolution per physical layer (default 1).
	CellsPerGroup int
	// HandleCells subdivides the handle wafer (default 2).
	HandleCells int
	// InterTierTBR, when positive, inserts a thermal boundary
	// resistance (m²K/W) at every tier-to-tier interface — the
	// bonding/regrowth interface of monolithic integration. [34] puts
	// CMOS interface conductance near 10⁹ W/m²/K (TBR ≈ 1e-9),
	// which the paper treats as negligible.
	InterTierTBR float64
	// MemoryPerTier adds the interleaved memory sub-layer each tier of
	// the studied designs carries (Fig. 1: "silicon memory, memory
	// access devices, and additional BEOL are also present on each
	// tier"): one more device-silicon layer plus a full BEOL stack,
	// roughly doubling the per-tier vertical resistance. Memory power
	// is part of the tier power map (painted into the logic device
	// layer), so the sub-layer itself is passive.
	MemoryPerTier bool
}

// Layout records where each physical layer landed in the grid.
type Layout struct {
	Grid *mesh.Grid
	// DeviceLayers[t] lists the z cell-layer indices of tier t's
	// device silicon.
	DeviceLayers [][]int
	// TierOfLayer maps each z layer to its tier (−1 for handle).
	TierOfLayer []int
}

// PillarKDefault is the COMSOL-derived effective pillar conductivity
// of the paper (Fig. 7): 105 W/m/K at 100 nm × 100 nm footprint.
const PillarKDefault = 105.0

// Build assembles the solver problem.
func (s *Spec) Build() (*solver.Problem, *Layout, error) {
	if s.DieW <= 0 || s.DieH <= 0 {
		return nil, nil, errors.New("stack: non-positive die dimensions")
	}
	if s.Tiers < 1 {
		return nil, nil, fmt.Errorf("stack: need at least 1 tier, got %d", s.Tiers)
	}
	if s.NX < 1 || s.NY < 1 {
		return nil, nil, fmt.Errorf("stack: bad in-plane resolution %dx%d", s.NX, s.NY)
	}
	if err := s.BEOL.Validate(); err != nil {
		return nil, nil, err
	}
	if err := s.Sink.Validate(); err != nil {
		return nil, nil, err
	}
	switch len(s.PowerMaps) {
	case 1, s.Tiers:
	default:
		return nil, nil, fmt.Errorf("stack: %d power maps for %d tiers", len(s.PowerMaps), s.Tiers)
	}
	for t, pm := range s.PowerMaps {
		if len(pm) != s.NX*s.NY {
			return nil, nil, fmt.Errorf("stack: power map %d has %d cells, want %d", t, len(pm), s.NX*s.NY)
		}
	}
	if s.Pillars != nil {
		if err := s.Pillars.Validate(); err != nil {
			return nil, nil, err
		}
		if s.Pillars.NX != s.NX || s.Pillars.NY != s.NY {
			return nil, nil, fmt.Errorf("stack: pillar field %dx%d mismatches grid %dx%d", s.Pillars.NX, s.Pillars.NY, s.NX, s.NY)
		}
	}
	if s.PillarsPerTier != nil {
		if len(s.PillarsPerTier) != s.Tiers {
			return nil, nil, fmt.Errorf("stack: %d per-tier pillar fields for %d tiers", len(s.PillarsPerTier), s.Tiers)
		}
		for t, pf := range s.PillarsPerTier {
			if pf == nil {
				return nil, nil, fmt.Errorf("stack: nil pillar field for tier %d", t)
			}
			if err := pf.Validate(); err != nil {
				return nil, nil, err
			}
			if pf.NX != s.NX || pf.NY != s.NY {
				return nil, nil, fmt.Errorf("stack: tier %d pillar field %dx%d mismatches grid", t, pf.NX, pf.NY)
			}
		}
	}
	pillarK := s.PillarK
	if pillarK <= 0 {
		pillarK = PillarKDefault
	}
	cells := s.CellsPerGroup
	if cells < 1 {
		cells = 1
	}
	handleCells := s.HandleCells
	if handleCells < 1 {
		handleCells = 2
	}

	asap := pdk.ASAP7()
	lowerT := asap.LowerThickness()
	upperT := asap.UpperThickness()

	zb := mesh.NewZLayerBuilder()
	zb.Add("handle", pdk.HandleSiliconThickness, handleCells)
	for t := 0; t < s.Tiers; t++ {
		zb.Add(fmt.Sprintf("si%d", t), pdk.DeviceSiliconThickness, 1)
		zb.Add(fmt.Sprintf("lower%d", t), lowerT, cells)
		zb.Add(fmt.Sprintf("upper%d", t), upperT, cells)
		if s.MemoryPerTier {
			zb.Add(fmt.Sprintf("msi%d", t), pdk.DeviceSiliconThickness, 1)
			zb.Add(fmt.Sprintf("mlower%d", t), lowerT, cells)
			zb.Add(fmt.Sprintf("mupper%d", t), upperT, cells)
		}
	}
	xs := make([]float64, s.NX+1)
	for i := range xs {
		xs[i] = s.DieW * float64(i) / float64(s.NX)
	}
	ys := make([]float64, s.NY+1)
	for j := range ys {
		ys[j] = s.DieH * float64(j) / float64(s.NY)
	}
	g, err := mesh.New(xs, ys, zb.Bounds())
	if err != nil {
		return nil, nil, fmt.Errorf("stack: %w", err)
	}

	p := solver.NewProblem(g)
	lay := &Layout{Grid: g, DeviceLayers: make([][]int, s.Tiers), TierOfLayer: make([]int, g.NZ())}

	deviceSi := materials.DeviceSilicon()
	handleSi := materials.HandleSilicon()

	tags := zb.Tags()
	for k := 0; k < g.NZ(); k++ {
		tag := tags[k]
		tier := -1
		isBEOL := false
		var kLat, kVert, cv float64
		kind := tag
		if tag != "handle" {
			// Strip the tier suffix: si3 → si, mlower0 → mlower.
			end := len(tag)
			for end > 0 && tag[end-1] >= '0' && tag[end-1] <= '9' {
				end--
			}
			kind = tag[:end]
			fmt.Sscanf(tag[end:], "%d", &tier)
		}
		switch kind {
		case "handle":
			kLat, kVert, cv = handleSi.KLateral, handleSi.KVertical, handleSi.VolHeatCapacity
		case "si":
			kLat, kVert, cv = deviceSi.KLateral, deviceSi.KVertical, deviceSi.VolHeatCapacity
			lay.DeviceLayers[tier] = append(lay.DeviceLayers[tier], k)
		case "msi":
			kLat, kVert, cv = deviceSi.KLateral, deviceSi.KVertical, deviceSi.VolHeatCapacity
		case "lower", "mlower":
			kLat, kVert, cv = s.BEOL.LowerKLat, s.BEOL.LowerKVert+s.ExtraBEOLKVert, materials.CvOxide
			isBEOL = true
		case "upper", "mupper":
			kLat, kVert, cv = s.BEOL.UpperKLat, s.BEOL.UpperKVert+s.ExtraBEOLKVert, materials.CvOxide
			isBEOL = true
		default:
			return nil, nil, fmt.Errorf("stack: unknown layer tag %q", tag)
		}
		lay.TierOfLayer[k] = tier
		var pillars *PillarField
		if isBEOL {
			switch {
			case s.PillarsPerTier != nil && tier >= 0:
				pillars = s.PillarsPerTier[tier]
			case s.Pillars != nil:
				pillars = s.Pillars
			}
		}
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				c := g.Index(i, j, k)
				kl, kv := kLat, kVert
				if pillars != nil {
					f := pillars.Coverage[j*s.NX+i]
					if f > 0 {
						kv = kv + f*(pillarK-kv)
						kl = kl + f*(pillarK-kl)
					}
				}
				p.SetAniso(c, kl, kv)
				p.Cv[c] = cv
			}
		}
	}
	if err := s.PaintSources(p, lay); err != nil {
		return nil, nil, err
	}
	p.Bounds[solver.ZMin] = solver.ConvectiveBC(s.Sink.H, s.Sink.Ambient())
	if s.InterTierTBR > 0 {
		tbr := make([]float64, g.NZ()-1)
		for k := 0; k+1 < g.NZ(); k++ {
			if lay.TierOfLayer[k] != lay.TierOfLayer[k+1] {
				tbr[k] = s.InterTierTBR
			}
		}
		p.ZPlaneTBR = tbr
	}
	return p, lay, nil
}

// PaintSources writes the spec's power maps into p.Q: each tier's
// device layers receive that tier's map (W/m²) divided by the layer
// thickness. p must share lay's grid. Build calls this as its final
// source step; it is also the fast path for re-targeting a cached
// family geometry at a new power map (solver.Problem.CloneBlankSources
// plus PaintSources is bitwise identical to a full Build).
func (s *Spec) PaintSources(p *solver.Problem, lay *Layout) error {
	switch len(s.PowerMaps) {
	case 1, s.Tiers:
	default:
		return fmt.Errorf("stack: %d power maps for %d tiers", len(s.PowerMaps), s.Tiers)
	}
	for t, pm := range s.PowerMaps {
		if len(pm) != s.NX*s.NY {
			return fmt.Errorf("stack: power map %d has %d cells, want %d", t, len(pm), s.NX*s.NY)
		}
	}
	g := lay.Grid
	for tier, layers := range lay.DeviceLayers {
		pmIdx := 0
		if len(s.PowerMaps) > 1 {
			pmIdx = tier
		}
		pm := s.PowerMaps[pmIdx]
		for _, k := range layers {
			dz := g.DZ(k)
			for j := 0; j < s.NY; j++ {
				for i := 0; i < s.NX; i++ {
					p.Q[g.Index(i, j, k)] = pm[j*s.NX+i] / dz
				}
			}
		}
	}
	return nil
}

// LayeredView extracts the per-layer thicknesses, conductivities,
// and source maps of a pillar-free spec for the spectral direct
// solver (internal/spectral). It errors when a pillar field breaks
// lateral uniformity — the spectral method requires laterally uniform
// conductivity per layer.
func (s *Spec) LayeredView() (dz, kLat, kVert []float64, q [][]float64, err error) {
	if s.Pillars != nil || s.PillarsPerTier != nil {
		return nil, nil, nil, nil, errors.New("stack: spectral view requires a pillar-free stack")
	}
	if s.ExtraBEOLKVert < 0 {
		return nil, nil, nil, nil, errors.New("stack: negative fill boost")
	}
	if s.InterTierTBR > 0 {
		return nil, nil, nil, nil, errors.New("stack: spectral view does not carry interface resistances")
	}
	p, lay, err := s.Build()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g := lay.Grid
	nz := g.NZ()
	dz = make([]float64, nz)
	kLat = make([]float64, nz)
	kVert = make([]float64, nz)
	q = make([][]float64, nz)
	for k := 0; k < nz; k++ {
		dz[k] = g.DZ(k)
		c0 := g.Index(0, 0, k)
		kLat[k] = p.KX[c0]
		kVert[k] = p.KZ[c0]
		// Collect the layer's source map; skip all-zero layers.
		var any bool
		layerQ := make([]float64, s.NX*s.NY)
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				v := p.Q[g.Index(i, j, k)]
				layerQ[j*s.NX+i] = v
				if v != 0 {
					any = true
				}
			}
		}
		if any {
			q[k] = layerQ
		}
	}
	return dz, kLat, kVert, q, nil
}

// Result wraps a solved stack.
type Result struct {
	Spec   *Spec
	Layout *Layout
	Field  *solver.Result
}

// Solve builds and solves the stack with opts, defaulting Tol to
// 1e-7.
func (s *Spec) Solve(opts solver.Options) (*Result, error) {
	p, lay, err := s.Build()
	if err != nil {
		return nil, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-7
	}
	r, err := solver.SolveSteady(p, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: s, Layout: lay, Field: r}, nil
}

// SolveNonlinear solves the stack with temperature-dependent silicon
// conductivity (k ∝ T^-1.3 around 300 K) applied to the handle and
// device layers — hot stacks conduct measurably worse than the
// constant-property model predicts. BEOL layers keep their
// homogenized values (dielectric and copper temperature coefficients
// are second-order over the 100–150 °C range).
func (s *Spec) SolveNonlinear(opts solver.Options) (*Result, error) {
	p, lay, err := s.Build()
	if err != nil {
		return nil, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-7
	}
	g := lay.Grid
	// Mark silicon cells and remember their 300 K conductivities.
	silicon := make([]bool, g.NumCells())
	baseKX := append([]float64(nil), p.KX...)
	baseKY := append([]float64(nil), p.KY...)
	baseKZ := append([]float64(nil), p.KZ...)
	for k := 0; k < g.NZ(); k++ {
		// Silicon layers: the handle (tier −1) and thin device layers
		// (identified by their 100 nm thickness).
		isSi := lay.TierOfLayer[k] == -1 || g.DZ(k) <= 2*pdk.DeviceSiliconThickness
		if !isSi {
			continue
		}
		for j := 0; j < s.NY; j++ {
			for i := 0; i < s.NX; i++ {
				silicon[g.Index(i, j, k)] = true
			}
		}
	}
	nl, err := solver.SolveSteadyNonlinear(p, func(c int, tK float64) (float64, float64, float64) {
		if !silicon[c] {
			return baseKX[c], baseKY[c], baseKZ[c]
		}
		scale := solver.SiliconKScale(tK)
		return baseKX[c] * scale, baseKY[c] * scale, baseKZ[c] * scale
	}, solver.NonlinearOptions{Inner: opts})
	if err != nil {
		return nil, err
	}
	return &Result{Spec: s, Layout: lay, Field: nl.Result}, nil
}

// MaxT returns the peak temperature (K) — the paper's T_j.
func (r *Result) MaxT() float64 { return r.Field.Max() }

// Sink returns the heatsink the stack was solved with.
func (r *Result) Sink() heatsink.Model { return r.Spec.Sink }

// TierMaxT returns the peak temperature (K) within tier t's device
// layer.
func (r *Result) TierMaxT(t int) float64 {
	m := 0.0
	for _, k := range r.Layout.DeviceLayers[t] {
		if v := r.Field.LayerMax(k); v > m {
			m = v
		}
	}
	return m
}

// TotalFlux returns the design heat flux through the sink (W/m²) —
// total power over die area.
func (s *Spec) TotalFlux() float64 {
	total := 0.0
	cellArea := (s.DieW / float64(s.NX)) * (s.DieH / float64(s.NY))
	for t := 0; t < s.Tiers; t++ {
		pmIdx := 0
		if len(s.PowerMaps) > 1 {
			pmIdx = t
		}
		for _, q := range s.PowerMaps[pmIdx] {
			total += q * cellArea
		}
		if len(s.PowerMaps) == 1 {
			// replicated map: multiply once at the end
			total *= float64(s.Tiers)
			break
		}
	}
	return total / (s.DieW * s.DieH)
}
