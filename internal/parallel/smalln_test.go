package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// dispatchedBy runs f and returns how many regions it handed to
// helper goroutines. Tests in this package run one at a time, so the
// delta of the process-wide counter is f's own.
func dispatchedBy(f func()) int64 {
	before := RegionsDispatched()
	f()
	return RegionsDispatched() - before
}

// TestSmallRegionRunsInline: below minDispatchChunks a region
// executes on the caller (worker 0) in ascending chunk order, so
// chunk-ordered reductions see the exact order of the dispatched path.
func TestSmallRegionRunsInline(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	for chunks := 0; chunks < minDispatchChunks; chunks++ {
		var order []int
		p.Run(chunks, func(worker, c int) {
			if worker != 0 {
				t.Errorf("chunks=%d: chunk %d ran on worker %d, want inline worker 0", chunks, c, worker)
			}
			order = append(order, c) // safe: inline path is single-goroutine
		})
		for i, c := range order {
			if c != i {
				t.Errorf("chunks=%d: position %d ran chunk %d, want ascending order", chunks, i, c)
			}
		}
		if len(order) != chunks {
			t.Errorf("chunks=%d: %d chunks ran", chunks, len(order))
		}
	}
}

// TestSmallNDispatchesNoRegion pins the small-n contract structurally,
// through the dispatch counter rather than a timing: on dynamic and
// affine pools of several widths, no region below minDispatchChunks
// wakes a helper, whichever entry point issues it, and For and
// ForGrain make one full-range call, the serial loop shape. A region
// at the threshold does dispatch, so the counter is not vacuous.
func TestSmallNDispatchesNoRegion(t *testing.T) {
	for _, affine := range []bool{false, true} {
		for _, w := range []int{2, 3, 8} {
			p := newPool(w, affine)
			name := fmt.Sprintf("affine=%v workers=%d", affine, w)
			for _, chunks := range []int{0, 1, 2, 5, 13, 19, minDispatchChunks - 1} {
				if p.Dispatches(chunks) {
					t.Errorf("%s: Dispatches(%d) = true below the threshold", name, chunks)
				}
				n := chunks * Grain
				d := dispatchedBy(func() {
					p.Run(chunks, func(_, _ int) {})
					p.For(n, func(s, e int) {
						if s != 0 || e != n {
							t.Errorf("%s n=%d: For called fn(%d, %d), want one full-range call", name, n, s, e)
						}
					})
					p.ForGrain(chunks*7, 7, func(worker, s, e int) {
						if worker != 0 || s != 0 || e != chunks*7 {
							t.Errorf("%s: ForGrain called fn(%d, %d, %d), want one full-range call", name, worker, s, e)
						}
					})
					p.ReduceSum(n, nil, func(s, e int) float64 { return float64(e - s) })
				})
				if d != 0 {
					t.Errorf("%s chunks=%d: %d regions woke helpers, want 0", name, chunks, d)
				}
			}
			var ran atomic.Int64
			if d := dispatchedBy(func() {
				p.Run(minDispatchChunks, func(_, _ int) { ran.Add(1) })
			}); d != 1 || ran.Load() != minDispatchChunks {
				t.Errorf("%s: a %d-chunk region dispatched %d times and ran %d chunks, want 1 and %d",
					name, minDispatchChunks, d, ran.Load(), minDispatchChunks)
			}
			p.Close()
		}
	}
	serial := NewPool(1)
	defer serial.Close()
	if d := dispatchedBy(func() { serial.Run(4*minDispatchChunks, func(_, _ int) {}) }); d != 0 || serial.Dispatches(4*minDispatchChunks) {
		t.Errorf("1-worker pool dispatched %d regions", d)
	}
}

// TestSmallReduceBitIdentical: the scratch-free inline ReduceSum path
// is bit-identical to the explicit chunk-ordered sum the dispatched
// path computes, at every worker count ≥ 2, and needs no scratch.
func TestSmallReduceBitIdentical(t *testing.T) {
	a := make([]float64, minDispatchChunks*Grain)
	rng := uint64(7)
	for i := range a {
		rng = rng*6364136223846793005 + 1442695040888963407
		a[i] = float64(rng>>40)/float64(1<<24) - 0.5
	}
	sumRange := func(s, e int) float64 {
		v := 0.0
		for i := s; i < e; i++ {
			v += a[i] * a[i]
		}
		return v
	}
	for _, n := range []int{1, Grain, Grain + 1, 2 * Grain, (minDispatchChunks-1)*Grain + 5, minDispatchChunks * Grain} {
		p2 := NewPool(2)
		p8 := NewPool(8)
		got2 := p2.ReduceSum(n, nil, sumRange)
		got8 := p8.ReduceSum(n, nil, sumRange)
		p2.Close()
		p8.Close()
		if got2 != got8 {
			t.Errorf("n=%d: workers=2 sum %v != workers=8 sum %v", n, got2, got8)
		}
		// Reference: explicit chunk-ordered accumulation, the
		// documented parallel reduction order.
		want := 0.0
		for c := 0; c < NumChunks(n); c++ {
			s, e := c*Grain, (c+1)*Grain
			if e > n {
				e = n
			}
			want += sumRange(s, e)
		}
		if got2 != want {
			t.Errorf("n=%d: reduce %v differs from chunk-ordered reference %v", n, got2, want)
		}
	}
}

// BenchmarkSmallNReduce tracks the small-n dispatch overhead directly:
// a region below the threshold runs inline, so the variants should be
// indistinguishable.
func BenchmarkSmallNReduce(b *testing.B) {
	const n = 2 * Grain
	a := make([]float64, n)
	for i := range a {
		a[i] = float64(i%17) * 0.25
	}
	kernel := func(s, e int) float64 {
		v := 0.0
		for i := s; i < e; i++ {
			v += a[i] * a[i]
		}
		return v
	}
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				_ = p.ReduceSum(n, nil, kernel)
			}
		})
	}
}
