// Package beol estimates effective thermal conductivities of BEOL
// layer groups by numerical homogenization, replacing the paper's
// COMSOL finite-element slice analysis (Fig. 7a, after [5]).
//
// A representative slice of the interconnect stack is generated
// explicitly: copper routing stripes at each metal layer's pitch and
// density (alternating routing direction per layer), via posts at
// each via layer's density (misaligned between signal via layers, so
// no artificial metal columns percolate; aligned at stripe crossings
// in the power-delivery upper layers, as in Fig. 7c). The slice is
// then solved three times on a fine finite-volume grid — once with a
// vertical temperature gradient and once per lateral axis — and the
// effective conductivity is extracted from the computed heat flux.
package beol

import (
	"fmt"
	"math"

	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/pdk"
	"thermalscaffold/internal/solver"
)

// Direction of routing stripes in a metal layer.
type Direction int

const (
	AlongX Direction = iota
	AlongY
	Posts // via layers: isolated square posts
)

// LayerGeom is the paintable geometry of one BEOL layer in the slice.
type LayerGeom struct {
	Name      string
	Thickness float64 // m
	Pitch     float64 // stripe/post pitch, m
	Density   float64 // metal area fraction in (0,1)
	Direction Direction
	OffsetX   float64 // pattern offset, m (used to misalign vias)
	OffsetY   float64
	MetalK    float64            // copper conductivity for this layer's dimensions, W/m/K
	Diel      materials.Material // surrounding dielectric
}

// SliceSpec describes a homogenization experiment.
type SliceSpec struct {
	TileX, TileY  float64 // lateral extent of the slice, m
	NX, NY        int     // in-plane resolution
	CellsPerLayer int     // z cells per BEOL layer
	Layers        []LayerGeom
	// Tol is the solver tolerance (default 1e-8).
	Tol float64
}

// Effective holds homogenized conductivities of a layer group.
type Effective struct {
	KVertical float64 // through-plane, W/m/K
	KLateralX float64
	KLateralY float64
	MetalFrac float64 // realized metal volume fraction of the slice
}

// KLateral returns the mean in-plane conductivity, the single number
// the paper's Fig. 7a table reports.
func (e Effective) KLateral() float64 { return (e.KLateralX + e.KLateralY) / 2 }

func (e Effective) String() string {
	return fmt.Sprintf("k⊥=%.3g k∥=%.3g W/m/K (metal %.1f%%)", e.KVertical, e.KLateral(), 100*e.MetalFrac)
}

// GroupOptions tunes geometry generation for a layer group.
type GroupOptions struct {
	// ViaDensity overrides the PDK via-layer density (0 keeps PDK).
	ViaDensity float64
	// AlignVias stacks via posts into continuous columns under stripe
	// crossings — true for the upper power-delivery group where
	// max-density interlayer vias are deliberately inserted (Fig. 7c),
	// false for signal routing where vias land wherever routing needs
	// them and do not percolate vertically.
	AlignVias bool
	// MetalDensity overrides the PDK metal-layer density (0 keeps PDK).
	MetalDensity float64
	// MetalK overrides the size-dependent copper conductivity derived
	// from each layer's minimum width (0 keeps the derived value).
	// Fig. 7a uses 242 W/m/K for the wide upper power rails and 105
	// for V0–V7 routing.
	MetalK float64
}

// GroupGeometry builds the paintable geometry for a PDK layer group
// under a dielectric plan.
func GroupGeometry(layers []pdk.Layer, plan pdk.DielectricPlan, opts GroupOptions) []LayerGeom {
	var out []LayerGeom
	metalIdx := 0
	viaIdx := 0
	for _, l := range layers {
		g := LayerGeom{
			Name:      l.Name,
			Thickness: l.Thickness,
			Pitch:     l.Pitch,
			Density:   l.Density,
			MetalK:    materials.CopperConductivity(l.MinWidth),
			Diel:      plan.DielectricFor(l),
		}
		if opts.MetalK > 0 {
			g.MetalK = opts.MetalK
		}
		switch l.Type {
		case pdk.Metal:
			if metalIdx%2 == 0 {
				g.Direction = AlongX
			} else {
				g.Direction = AlongY
			}
			if opts.MetalDensity > 0 {
				g.Density = opts.MetalDensity
			}
			metalIdx++
		case pdk.Via:
			g.Direction = Posts
			if opts.ViaDensity > 0 {
				g.Density = opts.ViaDensity
			}
			if !opts.AlignVias {
				// Stagger each successive via layer by half a pitch in
				// both axes so posts never stack into columns.
				g.OffsetX = float64(viaIdx%2) * l.Pitch / 2
				g.OffsetY = float64((viaIdx+1)%2) * l.Pitch / 2
			}
			viaIdx++
		}
		out = append(out, g)
	}
	return out
}

// DefaultSpec wraps a layer group in the standard slice used by the
// experiments: a 640 nm tile at 8 nm in-plane resolution.
func DefaultSpec(layers []LayerGeom) SliceSpec {
	return SliceSpec{TileX: 640e-9, TileY: 640e-9, NX: 80, NY: 80, CellsPerLayer: 1, Layers: layers}
}

// CoarseSpec is a faster, coarser slice for unit tests.
func CoarseSpec(layers []LayerGeom) SliceSpec {
	return SliceSpec{TileX: 320e-9, TileY: 320e-9, NX: 40, NY: 40, CellsPerLayer: 1, Layers: layers}
}

// metalAt reports whether (x, y) lies on metal in layer g.
func (g LayerGeom) metalAt(x, y float64) bool {
	switch g.Direction {
	case AlongX:
		// Stripes run along x: pattern repeats in y.
		w := g.Density * g.Pitch
		return math.Mod(y-g.OffsetY+1e3*g.Pitch, g.Pitch) < w
	case AlongY:
		w := g.Density * g.Pitch
		return math.Mod(x-g.OffsetX+1e3*g.Pitch, g.Pitch) < w
	case Posts:
		s := g.Pitch * math.Sqrt(g.Density)
		mx := math.Mod(x-g.OffsetX+1e3*g.Pitch, g.Pitch)
		my := math.Mod(y-g.OffsetY+1e3*g.Pitch, g.Pitch)
		return mx < s && my < s
	default:
		return false
	}
}

// buildProblem paints the slice onto a grid.
func (s SliceSpec) buildProblem() (*solver.Problem, float64, error) {
	if len(s.Layers) == 0 {
		return nil, 0, fmt.Errorf("beol: no layers to homogenize")
	}
	if s.TileX <= 0 || s.TileY <= 0 || s.NX < 2 || s.NY < 2 {
		return nil, 0, fmt.Errorf("beol: bad slice dimensions %gx%g @ %dx%d", s.TileX, s.TileY, s.NX, s.NY)
	}
	cells := s.CellsPerLayer
	if cells < 1 {
		cells = 1
	}
	zb := mesh.NewZLayerBuilder()
	for _, l := range s.Layers {
		zb.Add(l.Name, l.Thickness, cells)
	}
	xs := make([]float64, s.NX+1)
	for i := range xs {
		xs[i] = s.TileX * float64(i) / float64(s.NX)
	}
	ys := make([]float64, s.NY+1)
	for j := range ys {
		ys[j] = s.TileY * float64(j) / float64(s.NY)
	}
	g, err := mesh.New(xs, ys, zb.Bounds())
	if err != nil {
		return nil, 0, fmt.Errorf("beol: %w", err)
	}
	p := solver.NewProblem(g)
	metalCells := 0
	for k := 0; k < g.NZ(); k++ {
		layer := s.Layers[k/cells]
		for j := 0; j < g.NY(); j++ {
			y := g.CY(j)
			for i := 0; i < g.NX(); i++ {
				x := g.CX(i)
				c := g.Index(i, j, k)
				if layer.metalAt(x, y) {
					p.SetIsotropic(c, layer.MetalK)
					metalCells++
				} else {
					p.SetAniso(c, layer.Diel.KLateral, layer.Diel.KVertical)
				}
			}
		}
	}
	frac := float64(metalCells) / float64(g.NumCells())
	return p, frac, nil
}

// Homogenize runs the three numerical experiments and returns the
// effective conductivities of the slice.
func (s SliceSpec) Homogenize() (Effective, error) {
	p, frac, err := s.buildProblem()
	if err != nil {
		return Effective{}, err
	}
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	const dT = 1.0
	solveAxis := func(lo, hi solver.Face, span, area float64) (float64, error) {
		for f := range p.Bounds {
			p.Bounds[f] = solver.AdiabaticBC()
		}
		p.Bounds[lo] = solver.DirichletBC(dT)
		p.Bounds[hi] = solver.DirichletBC(0)
		r, err := solver.SolveSteady(p, solver.Options{Tol: tol, MaxIter: 60000})
		if err != nil {
			return 0, err
		}
		q := solver.BoundaryFlux(p, r, hi) // heat leaving the cold face, W
		return q * span / (area * dT), nil
	}
	g := p.Grid
	var eff Effective
	eff.MetalFrac = frac
	if eff.KVertical, err = solveAxis(solver.ZMin, solver.ZMax, g.LZ(), g.LX()*g.LY()); err != nil {
		return Effective{}, fmt.Errorf("beol: vertical homogenization: %w", err)
	}
	if eff.KLateralX, err = solveAxis(solver.XMin, solver.XMax, g.LX(), g.LY()*g.LZ()); err != nil {
		return Effective{}, fmt.Errorf("beol: lateral-x homogenization: %w", err)
	}
	if eff.KLateralY, err = solveAxis(solver.YMin, solver.YMax, g.LY(), g.LX()*g.LZ()); err != nil {
		return Effective{}, fmt.Errorf("beol: lateral-y homogenization: %w", err)
	}
	return eff, nil
}

// WienerBounds returns the theoretical series (lower) and parallel
// (upper) conductivity bounds for the slice's realized metal
// fraction, against the thickness-weighted mean dielectric and metal
// conductivities. Any valid homogenization must land inside them.
func (s SliceSpec) WienerBounds() (lo, hi float64) {
	var tTot, kmNum, kdNumV float64
	for _, l := range s.Layers {
		tTot += l.Thickness
		kmNum += l.MetalK * l.Thickness
		kdNumV += l.Diel.KVertical * l.Thickness
	}
	km := kmNum / tTot
	kd := kdNumV / tTot
	f := s.metalAreaFraction()
	lo = 1 / (f/km + (1-f)/kd)
	hi = f*km + (1-f)*kd
	return lo, hi
}

func (s SliceSpec) metalAreaFraction() float64 {
	var tTot, fNum float64
	for _, l := range s.Layers {
		tTot += l.Thickness
		fNum += l.Density * l.Thickness
	}
	return fNum / tTot
}

// Standard group homogenizations used by the experiments. Geometry
// knobs follow Sec. III-C: signal routing in V0–V7 (1 % misaligned
// vias), power delivery with deliberately inserted max-density
// interlayer vias in M8–M9 (3 % aligned vias, Fig. 7c).

// LowerGroupSpec returns the V0–M7 slice under the given dielectric
// plan.
func LowerGroupSpec(stack *pdk.Stack, plan pdk.DielectricPlan) SliceSpec {
	geo := GroupGeometry(stack.Lower(), plan, GroupOptions{ViaDensity: 0.01, AlignVias: false, MetalK: 105})
	return DefaultSpec(geo)
}

// UpperGroupSpec returns the M8/V8/M9 slice under the given
// dielectric plan.
func UpperGroupSpec(stack *pdk.Stack, plan pdk.DielectricPlan) SliceSpec {
	geo := GroupGeometry(stack.Upper(), plan, GroupOptions{ViaDensity: 0.03, AlignVias: true, MetalK: 242})
	return DefaultSpec(geo)
}

// PaperFig7a returns the effective conductivities the paper's COMSOL
// analysis reports in Fig. 7a, for cross-referencing our numerical
// homogenization and for experiments that want to run with the
// published values exactly.
type PaperFig7aRow struct {
	Group      string
	Dielectric string
	KVertical  float64
	KLateral   float64
}

// PaperFig7a lists the published Fig. 7a table.
func PaperFig7a() []PaperFig7aRow {
	return []PaperFig7aRow{
		{"M8-M9", "ultra-low-k", 6.9, 13.6},
		{"M8-M9", "thermal dielectric", 93.59, 101.73},
		{"V0-V7", "ultra-low-k", 0.31, 5.47},
	}
}
