package parallel

import (
	"fmt"
	"sync"
	"testing"
)

// TestOwnedRange: the static blocks tile [0, n) exactly, differ in
// length by at most one, and excess workers get empty blocks.
func TestOwnedRange(t *testing.T) {
	for _, c := range []struct{ n, k int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {137, 8}, {1000, 7}, {6, 1},
	} {
		covered := make([]int, c.n)
		minLen, maxLen := c.n+1, -1
		for w := 0; w < c.k+2; w++ {
			s, e := ownedRange(c.n, c.k, w)
			if w >= c.k {
				if s != e {
					t.Errorf("n=%d k=%d: worker %d ≥ k got non-empty [%d,%d)", c.n, c.k, w, s, e)
				}
				continue
			}
			if l := e - s; l < minLen {
				minLen = l
			}
			if l := e - s; l > maxLen {
				maxLen = l
			}
			for i := s; i < e; i++ {
				covered[i]++
			}
		}
		for i, n := range covered {
			if n != 1 {
				t.Fatalf("n=%d k=%d: chunk %d owned %d times", c.n, c.k, i, n)
			}
		}
		if c.n >= c.k && maxLen-minLen > 1 {
			t.Errorf("n=%d k=%d: block lengths range [%d,%d], want spread ≤ 1", c.n, c.k, minLen, maxLen)
		}
	}
}

// TestAffineStableOwnership: on an affine pool the chunk→worker
// assignment is identical on every Run with the same chunk count, and
// matches the pure ownedRange function — no per-call reshuffling.
func TestAffineStableOwnership(t *testing.T) {
	const workers, chunks = 4, 67 // ≥ minDispatchChunks, so Run dispatches
	p := NewAffinePool(workers)
	defer p.Close()
	if !p.Affine() {
		t.Fatal("NewAffinePool not affine")
	}
	var mu sync.Mutex
	record := func() []int {
		owner := make([]int, chunks)
		wantDispatched(t, "affine Run", 1, func() {
			p.Run(chunks, func(worker, c int) {
				mu.Lock()
				owner[c] = worker
				mu.Unlock()
			})
		})
		return owner
	}
	first := record()
	for w := 0; w < workers; w++ {
		s, e := ownedRange(chunks, workers, w)
		for c := s; c < e; c++ {
			if first[c] != w {
				t.Fatalf("chunk %d ran on worker %d, ownedRange says %d", c, first[c], w)
			}
		}
	}
	for rep := 0; rep < 20; rep++ {
		got := record()
		for c := range got {
			if got[c] != first[c] {
				t.Fatalf("rep %d: chunk %d moved from worker %d to %d", rep, c, first[c], got[c])
			}
		}
	}
}

// TestAffineDynamicBitIdentical: static ownership changes which worker
// runs a chunk, never what the chunk computes — ReduceSum and For are
// bitwise identical between affine and dynamic pools, and across
// repeated calls on the same affine pool.
func TestAffineDynamicBitIdentical(t *testing.T) {
	const n = 40*Grain + 311 // 41 chunks: the reductions dispatch
	a := make([]float64, n)
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
	dyn := NewPool(4)
	defer dyn.Close()
	want := dyn.ReduceSum(n, nil, sumRange)
	for _, w := range []int{2, 4, 8} {
		p := NewAffinePool(w)
		wantDispatched(t, fmt.Sprintf("affine workers=%d ReduceSum", w), 3, func() {
			for rep := 0; rep < 3; rep++ {
				if got := p.ReduceSum(n, nil, sumRange); got != want {
					t.Errorf("affine workers=%d rep=%d: sum %v != dynamic %v", w, rep, got, want)
				}
			}
		})
		p.Close()
	}
}

// TestArenaPerWorkerScratch: concurrent workers each write their own
// arena buffer with no synchronization — under -race this fails if
// buffers are ever shared — and reused buffers keep their identity
// (no realloc when capacity suffices).
func TestArenaPerWorkerScratch(t *testing.T) {
	const workers = 4
	p := NewAffinePool(workers)
	defer p.Close()
	ar := NewArena(workers)
	if ar.Workers() != workers {
		t.Fatalf("arena workers = %d, want %d", ar.Workers(), workers)
	}
	const chunks = 64
	wantDispatched(t, "arena Run", 10, func() {
		for rep := 0; rep < 10; rep++ {
			p.Run(chunks, func(worker, c int) {
				buf := ar.Get(worker, 512)
				for i := range buf {
					buf[i] = float64(worker*chunks + c)
				}
			})
		}
	})
	// Distinct workers must have received distinct backing arrays.
	seen := map[*float64]int{}
	for w := 0; w < workers; w++ {
		b := ar.Get(w, 512)
		if prev, dup := seen[&b[0]]; dup {
			t.Fatalf("workers %d and %d share a scratch buffer", prev, w)
		}
		seen[&b[0]] = w
	}
	// A shorter request reuses the grown buffer in place.
	b1 := ar.Get(0, 512)
	b2 := ar.Get(0, 100)
	if &b1[0] != &b2[0] {
		t.Error("shrinking Get reallocated instead of reslicing")
	}
	// NewArena clamps degenerate worker counts.
	if NewArena(0).Workers() != 1 {
		t.Error("NewArena(0) should clamp to 1 slot")
	}
}

// TestPoolsCreatedCounter: the process-wide constructor counter
// advances by exactly the number of pools built — the hook transient
// no-regression guards rely on.
func TestPoolsCreatedCounter(t *testing.T) {
	before := PoolsCreated()
	p1 := NewPool(2)
	p2 := NewAffinePool(3)
	p1.Close()
	p2.Close()
	if d := PoolsCreated() - before; d < 2 {
		t.Errorf("PoolsCreated advanced by %d, want ≥ 2", d)
	}
}
