package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{0, 1}, []float64{0, 1}, []float64{0, 1}); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	bad := [][3][]float64{
		{{0}, {0, 1}, {0, 1}},       // too few x bounds
		{{0, 1}, {0, 1, 1}, {0, 1}}, // non-increasing y
		{{0, 1}, {0, 1}, {0, 2, 1}}, // decreasing z
		{{1, 0}, {0, 1}, {0, 1}},    // decreasing x
	}
	for i, b := range bad {
		if _, err := New(b[0], b[1], b[2]); err == nil {
			t.Errorf("case %d: invalid grid accepted", i)
		}
	}
}

func TestUniformGeometry(t *testing.T) {
	g, err := Uniform(2, 3, 4, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX() != 4 || g.NY() != 3 || g.NZ() != 2 {
		t.Fatalf("dims = %d,%d,%d", g.NX(), g.NY(), g.NZ())
	}
	if g.NumCells() != 24 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if math.Abs(g.DX(0)-0.5) > 1e-12 || math.Abs(g.DY(0)-1) > 1e-12 || math.Abs(g.DZ(0)-2) > 1e-12 {
		t.Errorf("cell sizes %g %g %g", g.DX(0), g.DY(0), g.DZ(0))
	}
	if math.Abs(g.LX()-2) > 1e-12 || math.Abs(g.LY()-3) > 1e-12 || math.Abs(g.LZ()-4) > 1e-12 {
		t.Errorf("extents %g %g %g", g.LX(), g.LY(), g.LZ())
	}
	if math.Abs(g.Volume(0, 0, 0)-1.0) > 1e-12 {
		t.Errorf("volume = %g", g.Volume(0, 0, 0))
	}
	if math.Abs(g.CX(0)-0.25) > 1e-12 {
		t.Errorf("CX(0) = %g", g.CX(0))
	}
}

func TestUniformRejectsBadArgs(t *testing.T) {
	if _, err := Uniform(0, 1, 1, 1, 1, 1); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := Uniform(1, 1, 1, 0, 1, 1); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := Uniform(1, -1, 1, 1, 1, 1); err == nil {
		t.Error("negative extent accepted")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g, _ := Uniform(1, 1, 1, 5, 7, 3)
	f := func(rawI, rawJ, rawK uint) bool {
		i := int(rawI % 5)
		j := int(rawJ % 7)
		k := int(rawK % 3)
		idx := g.Index(i, j, k)
		gi, gj, gk := g.Coords(idx)
		return gi == i && gj == j && gk == k && idx >= 0 && idx < g.NumCells()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexDense(t *testing.T) {
	g, _ := Uniform(1, 1, 1, 3, 4, 5)
	seen := make(map[int]bool)
	for k := 0; k < 5; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 3; i++ {
				idx := g.Index(i, j, k)
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != g.NumCells() {
		t.Fatalf("indices cover %d cells, want %d", len(seen), g.NumCells())
	}
}

func TestFindCell(t *testing.T) {
	g, _ := New([]float64{0, 1, 3, 6}, []float64{0, 1}, []float64{0, 1})
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1.0, 1}, {2.9, 1}, {3.0, 2}, {5.9, 2}, {6.0, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := g.FindX(c.x); got != c.want {
			t.Errorf("FindX(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFindCellConsistentWithCenters(t *testing.T) {
	g, _ := Uniform(2e-3, 3e-3, 1e-6, 17, 13, 4)
	for i := 0; i < g.NX(); i++ {
		if got := g.FindX(g.CX(i)); got != i {
			t.Errorf("FindX(center of %d) = %d", i, got)
		}
	}
	for j := 0; j < g.NY(); j++ {
		if got := g.FindY(g.CY(j)); got != j {
			t.Errorf("FindY(center of %d) = %d", j, got)
		}
	}
	for k := 0; k < g.NZ(); k++ {
		if got := g.FindZ(g.CZ(k)); got != k {
			t.Errorf("FindZ(center of %d) = %d", k, got)
		}
	}
}

func TestZLayerBuilder(t *testing.T) {
	b := NewZLayerBuilder().
		Add("handle", 10e-6, 2).
		Add("device", 100e-9, 1).
		Add("beol", 1e-6, 3)
	if b.NumLayers() != 6 {
		t.Fatalf("NumLayers = %d", b.NumLayers())
	}
	zs := b.Bounds()
	if len(zs) != 7 {
		t.Fatalf("len(Bounds) = %d", len(zs))
	}
	total := zs[len(zs)-1]
	want := 10e-6 + 100e-9 + 1e-6
	if math.Abs(total-want) > 1e-15 {
		t.Errorf("total thickness %g, want %g", total, want)
	}
	if got := b.LayersTagged("beol"); len(got) != 3 || got[0] != 3 {
		t.Errorf("LayersTagged(beol) = %v", got)
	}
	if got := b.LayersTagged("missing"); got != nil {
		t.Errorf("LayersTagged(missing) = %v", got)
	}
	// Grid built from the builder must validate.
	if _, err := New([]float64{0, 1e-3}, []float64{0, 1e-3}, zs); err != nil {
		t.Errorf("builder bounds rejected: %v", err)
	}
}

func TestZLayerBuilderPanicsOnBadLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero thickness")
		}
	}()
	NewZLayerBuilder().Add("bad", 0, 1)
}

func TestZLayerBuilderMonotone(t *testing.T) {
	f := func(t1, t2, t3 float64) bool {
		th := []float64{
			1e-9 + math.Abs(math.Mod(t1, 1e-5)),
			1e-9 + math.Abs(math.Mod(t2, 1e-5)),
			1e-9 + math.Abs(math.Mod(t3, 1e-5)),
		}
		b := NewZLayerBuilder()
		for i, v := range th {
			b.Add(string(rune('a'+i)), v, 1+i)
		}
		zs := b.Bounds()
		for i := 1; i < len(zs); i++ {
			if zs[i] <= zs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoarsenOffsets(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, []int{0, 1}},
		{2, []int{0, 2}},
		{3, []int{0, 2, 3}},
		{5, []int{0, 2, 4, 5}},
		{8, []int{0, 2, 4, 6, 8}},
	}
	for _, c := range cases {
		got := CoarsenOffsets(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("CoarsenOffsets(%d) = %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("CoarsenOffsets(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
	if CoarsenOffsets(0) != nil {
		t.Error("CoarsenOffsets(0) should be nil")
	}
	// Every aggregate holds 1 or 2 fine cells and the offsets cover [0, n).
	for n := 1; n <= 33; n++ {
		off := CoarsenOffsets(n)
		if off[0] != 0 || off[len(off)-1] != n {
			t.Fatalf("n=%d: offsets %v do not cover the axis", n, off)
		}
		for a := 1; a < len(off); a++ {
			if w := off[a] - off[a-1]; w < 1 || w > 2 {
				t.Fatalf("n=%d: aggregate %d has width %d", n, a-1, w)
			}
		}
	}
}

func TestCoarsenXY(t *testing.T) {
	g, err := New(
		[]float64{0, 1, 3, 4, 7, 8}, // 5 cells
		[]float64{0, 2, 5, 9, 10},   // 4 cells
		[]float64{0, 0.1, 0.9, 1.0}, // 3 layers, nonuniform
	)
	if err != nil {
		t.Fatal(err)
	}
	c := g.CoarsenXY()
	if c.NX() != 3 || c.NY() != 2 || c.NZ() != 3 {
		t.Fatalf("coarse dims %dx%dx%d, want 3x2x3", c.NX(), c.NY(), c.NZ())
	}
	// Coarse boundaries are a subset of the fine ones, extents match.
	wantXs := []float64{0, 3, 7, 8}
	for i, x := range wantXs {
		if c.Xs[i] != x {
			t.Fatalf("coarse Xs = %v, want %v", c.Xs, wantXs)
		}
	}
	if c.LX() != g.LX() || c.LY() != g.LY() || c.LZ() != g.LZ() {
		t.Error("coarsening changed the domain extent")
	}
	// z untouched (semi-coarsening).
	for k := range c.Zs {
		if c.Zs[k] != g.Zs[k] {
			t.Fatal("CoarsenXY modified z boundaries")
		}
	}
	// Coarsening a 1x1 in-plane grid is a no-op in x/y.
	g1, _ := New([]float64{0, 1}, []float64{0, 1}, []float64{0, 1, 2})
	c1 := g1.CoarsenXY()
	if c1.NX() != 1 || c1.NY() != 1 || c1.NZ() != 2 {
		t.Errorf("1x1 coarsening changed dims to %dx%dx%d", c1.NX(), c1.NY(), c1.NZ())
	}
	// Volume is conserved per coarse cell column group: total volume equal.
	var vf, vc float64
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				vf += g.Volume(i, j, k)
			}
		}
	}
	for k := 0; k < c.NZ(); k++ {
		for j := 0; j < c.NY(); j++ {
			for i := 0; i < c.NX(); i++ {
				vc += c.Volume(i, j, k)
			}
		}
	}
	if math.Abs(vf-vc) > 1e-12*vf {
		t.Errorf("coarsening lost volume: fine %g vs coarse %g", vf, vc)
	}
}
