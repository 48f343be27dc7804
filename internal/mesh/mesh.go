// Package mesh provides rectilinear, non-uniform 3-D grids for the
// finite-volume thermal solver. A Grid is defined by its cell
// boundary coordinates along each axis; cells are indexed (i, j, k)
// with i fastest (x), then j (y), then k (z). z points from the
// heatsink (k=0) toward the top tier, matching the paper's stack
// orientation where heat flows down to the sink.
package mesh

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Grid is a rectilinear grid defined by cell-boundary coordinates.
// Xs has NX+1 entries, strictly increasing, and similarly for Ys/Zs.
type Grid struct {
	Xs, Ys, Zs []float64
}

// New validates boundary coordinate slices and builds a Grid.
func New(xs, ys, zs []float64) (*Grid, error) {
	for _, ax := range []struct {
		name string
		v    []float64
	}{{"x", xs}, {"y", ys}, {"z", zs}} {
		if len(ax.v) < 2 {
			return nil, fmt.Errorf("mesh: axis %s needs at least 2 boundaries, got %d", ax.name, len(ax.v))
		}
		for i, v := range ax.v {
			// NaN/Inf would defeat the ordering comparisons below (every
			// NaN comparison is false) and poison cell widths downstream.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("mesh: axis %s boundary %d is not finite (%g)", ax.name, i, v)
			}
		}
		for i := 1; i < len(ax.v); i++ {
			if ax.v[i] <= ax.v[i-1] {
				return nil, fmt.Errorf("mesh: axis %s boundaries not strictly increasing at %d (%g after %g)", ax.name, i, ax.v[i], ax.v[i-1])
			}
		}
	}
	// Every cell volume and face area must stay representable: widths
	// are positive and bounded by the per-axis extremes, so checking
	// the extreme-width products guards all of them. (Two finite
	// boundaries can still differ by more than MaxFloat64, and three
	// tiny widths can multiply below the smallest subnormal.)
	minw := func(v []float64) (lo, hi float64) {
		lo, hi = math.Inf(1), 0
		for i := 1; i < len(v); i++ {
			d := v[i] - v[i-1]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return
	}
	loX, hiX := minw(xs)
	loY, hiY := minw(ys)
	loZ, hiZ := minw(zs)
	if math.IsInf(hiX*hiY*hiZ, 0) || math.IsInf(hiX*hiY, 0) || math.IsInf(hiY*hiZ, 0) || math.IsInf(hiX*hiZ, 0) {
		return nil, errors.New("mesh: cell volume overflows float64 — axis extents too large")
	}
	if loX*loY*loZ == 0 {
		return nil, errors.New("mesh: cell volume underflows float64 — cell widths too small")
	}
	return &Grid{Xs: xs, Ys: ys, Zs: zs}, nil
}

// Uniform builds a grid covering [0,lx]×[0,ly]×[0,lz] with nx×ny×nz
// equal cells.
func Uniform(lx, ly, lz float64, nx, ny, nz int) (*Grid, error) {
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil, errors.New("mesh: non-positive extent")
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, errors.New("mesh: need at least one cell per axis")
	}
	return &Grid{
		Xs: linspace(0, lx, nx+1),
		Ys: linspace(0, ly, ny+1),
		Zs: linspace(0, lz, nz+1),
	}, nil
}

func linspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	out[n-1] = b
	return out
}

// NX returns the number of cells along x.
func (g *Grid) NX() int { return len(g.Xs) - 1 }

// NY returns the number of cells along y.
func (g *Grid) NY() int { return len(g.Ys) - 1 }

// NZ returns the number of cells along z.
func (g *Grid) NZ() int { return len(g.Zs) - 1 }

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.NX() * g.NY() * g.NZ() }

// Index returns the flat index of cell (i, j, k).
func (g *Grid) Index(i, j, k int) int {
	return (k*g.NY()+j)*g.NX() + i
}

// Coords inverts Index.
func (g *Grid) Coords(idx int) (i, j, k int) {
	nx, ny := g.NX(), g.NY()
	i = idx % nx
	j = (idx / nx) % ny
	k = idx / (nx * ny)
	return
}

// DX returns the width of cell column i.
func (g *Grid) DX(i int) float64 { return g.Xs[i+1] - g.Xs[i] }

// DY returns the depth of cell row j.
func (g *Grid) DY(j int) float64 { return g.Ys[j+1] - g.Ys[j] }

// DZ returns the height of cell layer k.
func (g *Grid) DZ(k int) float64 { return g.Zs[k+1] - g.Zs[k] }

// CX returns the x-coordinate of the center of column i.
func (g *Grid) CX(i int) float64 { return (g.Xs[i] + g.Xs[i+1]) / 2 }

// CY returns the y-coordinate of the center of row j.
func (g *Grid) CY(j int) float64 { return (g.Ys[j] + g.Ys[j+1]) / 2 }

// CZ returns the z-coordinate of the center of layer k.
func (g *Grid) CZ(k int) float64 { return (g.Zs[k] + g.Zs[k+1]) / 2 }

// Volume returns the volume of cell (i, j, k).
func (g *Grid) Volume(i, j, k int) float64 {
	return g.DX(i) * g.DY(j) * g.DZ(k)
}

// LX returns the grid extent along x.
func (g *Grid) LX() float64 { return g.Xs[len(g.Xs)-1] - g.Xs[0] }

// LY returns the grid extent along y.
func (g *Grid) LY() float64 { return g.Ys[len(g.Ys)-1] - g.Ys[0] }

// LZ returns the grid extent along z.
func (g *Grid) LZ() float64 { return g.Zs[len(g.Zs)-1] - g.Zs[0] }

// FindX returns the index of the cell column containing x, clamping
// to the valid range at the extremes.
func (g *Grid) FindX(x float64) int { return findCell(g.Xs, x) }

// FindY returns the index of the cell row containing y.
func (g *Grid) FindY(y float64) int { return findCell(g.Ys, y) }

// FindZ returns the index of the cell layer containing z.
func (g *Grid) FindZ(z float64) int { return findCell(g.Zs, z) }

func findCell(bounds []float64, v float64) int {
	n := len(bounds) - 1
	if v <= bounds[0] {
		return 0
	}
	if v >= bounds[n] {
		return n - 1
	}
	// sort.SearchFloat64s returns the first index with bounds[i] >= v.
	i := sort.SearchFloat64s(bounds, v)
	if bounds[i] == v {
		return min(i, n-1)
	}
	return i - 1
}

// CoarsenOffsets returns the aggregate boundaries that coarsen an
// axis of n cells by pairing adjacent cells: offsets[a] is the first
// fine cell of coarse cell a, offsets[len-1] == n. Aggregates have
// two fine cells except for an odd trailing singleton; n == 1 returns
// [0, 1] (no shrink). Used by the solver's semi-coarsened multigrid
// hierarchy — coarse boundaries are always a subset of fine
// boundaries, so coarse faces align with fine faces.
func CoarsenOffsets(n int) []int {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []int{0, 1}
	}
	out := make([]int, 0, n/2+2)
	for f := 0; f < n; f += 2 {
		out = append(out, f)
	}
	return append(out, n)
}

// CoarsenXY returns the grid semi-coarsened 2× in x and y with z
// untouched — the multigrid coarsening for high-aspect-ratio chip
// stacks, where the strongly nonuniform z spacing (BEOL vs device
// layers) must be preserved and handled by line smoothing instead.
// Coarse boundary coordinates are the subset of fine boundaries
// selected by CoarsenOffsets, so no new geometry is introduced.
func (g *Grid) CoarsenXY() *Grid {
	pick := func(bounds []float64) []float64 {
		off := CoarsenOffsets(len(bounds) - 1)
		out := make([]float64, len(off))
		for a, f := range off {
			out[a] = bounds[f]
		}
		return out
	}
	return &Grid{Xs: pick(g.Xs), Ys: pick(g.Ys), Zs: append([]float64(nil), g.Zs...)}
}

// ZLayerBuilder accumulates stacked z-layers, each subdivided into a
// number of cells, producing the z boundary coordinates for a chip
// stack grid. Layers are added bottom (heatsink side) first.
type ZLayerBuilder struct {
	zs []float64
}

// NewZLayerBuilder starts a builder at z = 0.
func NewZLayerBuilder() *ZLayerBuilder {
	return &ZLayerBuilder{zs: []float64{0}}
}

// Add appends a physical layer of the given thickness subdivided into
// cells equal slices; tag names the layer in the panic message. It
// returns the builder for chaining. Non-positive thickness or cells
// panic: stack construction is programmer-controlled.
func (b *ZLayerBuilder) Add(tag string, thickness float64, cells int) *ZLayerBuilder {
	if thickness <= 0 || cells < 1 {
		panic(fmt.Sprintf("mesh: bad layer %q: thickness=%g cells=%d", tag, thickness, cells))
	}
	z0 := b.zs[len(b.zs)-1]
	for c := 1; c <= cells; c++ {
		b.zs = append(b.zs, z0+thickness*float64(c)/float64(cells))
	}
	return b
}

// Bounds returns the accumulated z boundary coordinates.
func (b *ZLayerBuilder) Bounds() []float64 { return b.zs }
