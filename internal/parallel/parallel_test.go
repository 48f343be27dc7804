package parallel

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {Grain, 1}, {Grain + 1, 2},
		{3*Grain - 1, 3}, {3 * Grain, 3},
	}
	for _, c := range cases {
		if got := NumChunks(c.n); got != c.want {
			t.Errorf("NumChunks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
	s := NewPool(1)
	defer s.Close()
	if !s.Serial() || s.Workers() != 1 {
		t.Error("1-worker pool should be serial")
	}
	neg := NewPool(-3)
	defer neg.Close()
	if neg.Workers() < 1 {
		t.Error("negative worker count not defaulted")
	}
}

// wantDispatched fails the test unless f dispatched exactly want
// regions: the helper tests below must exercise the dispatched path,
// not the inline one.
func wantDispatched(t *testing.T, what string, want int64, f func()) {
	t.Helper()
	if d := dispatchedBy(f); d != want {
		t.Errorf("%s: %d regions dispatched, want %d", what, d, want)
	}
}

// dispatches is the number of regions one call on a w-worker pool
// dispatches when its chunk count is above the threshold.
func dispatches(w int) int64 {
	if w > 1 {
		return 1
	}
	return 0
}

// TestRunCoversEveryChunkOnce: each chunk index executes exactly once
// regardless of worker count.
func TestRunCoversEveryChunkOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		p := NewPool(w)
		const chunks = 137
		counts := make([]int64, chunks)
		wantDispatched(t, fmt.Sprintf("workers=%d Run", w), dispatches(w), func() {
			p.Run(chunks, func(worker, c int) {
				if worker < 0 || worker >= p.Workers() {
					t.Errorf("worker id %d out of range [0,%d)", worker, p.Workers())
				}
				atomic.AddInt64(&counts[c], 1)
			})
		})
		for c, n := range counts {
			if n != 1 {
				t.Errorf("workers=%d: chunk %d ran %d times", w, c, n)
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestForCoversRange: the fixed-grain chunking tiles [0, n) exactly,
// and a range too short to dispatch gets one full-range call.
func TestForCoversRange(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		for _, n := range []int{0, 1, Grain - 1, Grain, Grain + 1, 5*Grain + 17, 40*Grain + 17} {
			hit := make([]int32, n)
			dispatched := p.Dispatches(NumChunks(n))
			p.For(n, func(s, e int) {
				if dispatched && e-s > Grain {
					t.Errorf("chunk [%d,%d) exceeds grain", s, e)
				}
				if !dispatched && (s != 0 || e != n) {
					t.Errorf("inline n=%d: fn(%d, %d), want one full-range call", n, s, e)
				}
				for i := s; i < e; i++ {
					atomic.AddInt32(&hit[i], 1)
				}
			})
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestForGrain(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n, grain = 1000, 7 // 143 chunks
	var visited int64
	wantDispatched(t, "ForGrain", 1, func() {
		p.ForGrain(n, grain, func(worker, s, e int) {
			if worker < 0 || worker >= 3 {
				t.Errorf("bad worker id %d", worker)
			}
			if e-s > grain {
				t.Errorf("chunk [%d,%d) exceeds grain %d", s, e, grain)
			}
			atomic.AddInt64(&visited, int64(e-s))
		})
	})
	if visited != n {
		t.Errorf("visited %d of %d", visited, n)
	}
	// Degenerate grain defaults to 1.
	var once int64
	p.ForGrain(3, 0, func(_, s, e int) { atomic.AddInt64(&once, int64(e-s)) })
	if once != 3 {
		t.Errorf("grain 0: visited %d of 3", once)
	}
}

// TestReduceSumDeterministic: the chunked reduction is bit-identical
// across repeated runs and across worker counts ≥ 2, and within
// rounding of the serial single-pass sum.
func TestReduceSumDeterministic(t *testing.T) {
	const n = 40*Grain + 321 // 41 chunks: the reduction dispatches
	a := make([]float64, n)
	rng := uint64(42)
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
	serialPool := NewPool(1)
	defer serialPool.Close()
	serial := serialPool.ReduceSum(n, nil, sumRange)

	var ref float64
	for run, w := range []int{2, 2, 3, 5, 8, 16} {
		p := NewPool(w)
		var got float64
		wantDispatched(t, fmt.Sprintf("workers=%d ReduceSum", w), 1, func() {
			got = p.ReduceSum(n, make([]float64, NumChunks(n)), sumRange)
		})
		p.Close()
		if run == 0 {
			ref = got
		} else if got != ref {
			t.Errorf("workers=%d: sum %v differs bitwise from reference %v", w, got, ref)
		}
		if rel := math.Abs(got-serial) / math.Abs(serial); rel > 1e-13 {
			t.Errorf("workers=%d: chunked sum %v vs serial %v (rel %g)", w, got, serial, rel)
		}
	}
	// Small scratch is replaced, not overflowed.
	p := NewPool(2)
	defer p.Close()
	if got := p.ReduceSum(n, make([]float64, 1), sumRange); got != ref {
		t.Error("short scratch changed the result")
	}
	if got := p.ReduceSum(0, nil, sumRange); got != 0 {
		t.Errorf("empty reduction = %v", got)
	}
}

// TestConcurrentUse: one pool serving parallel regions from several
// goroutines at once stays correct (the solver shares a pool across
// kernel invocations, and tests run solvers concurrently).
func TestConcurrentUse(t *testing.T) {
	const goroutines, reps, chunks = 6, 50, minDispatchChunks + 23
	p := NewPool(4)
	defer p.Close()
	wantDispatched(t, "concurrent Run", goroutines*reps, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < reps; rep++ {
					var sum int64
					p.Run(chunks, func(_, c int) { atomic.AddInt64(&sum, int64(c)) })
					if sum != chunks*(chunks-1)/2 {
						t.Errorf("region sum %d", sum)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestRunBands: every band runs exactly once, and two bands or more
// wake the helpers however few they are — the caller has already
// judged the work they carry — while one band runs on the caller.
func TestRunBands(t *testing.T) {
	for _, affine := range []bool{false, true} {
		for _, w := range []int{1, 2, 3, 8} {
			p := newPool(w, affine)
			for _, bands := range []int{0, 1, 2, w} {
				counts := make([]int64, bands)
				want := int64(0)
				if bands > 1 {
					want = dispatches(w)
				}
				wantDispatched(t, fmt.Sprintf("affine=%v workers=%d bands=%d", affine, w, bands), want, func() {
					p.RunBands(bands, func(worker, b int) {
						if worker < 0 || worker >= w {
							t.Errorf("worker id %d out of range [0,%d)", worker, w)
						}
						atomic.AddInt64(&counts[b], 1)
					})
				})
				for b, n := range counts {
					if n != 1 {
						t.Errorf("affine=%v workers=%d: band %d ran %d times", affine, w, b, n)
					}
				}
			}
			p.Close()
		}
	}
}
