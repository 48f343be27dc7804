package solver

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"thermalscaffold/internal/mesh"
)

// TestEquivalenceDirtyFreeList: arrays handed out uncleared are
// written in full before they are read. With the garbage collector
// paused, the free list is filled with NaN arrays of every length a
// solve draws — the grid, each multigrid level, one column — before
// each of a set of private steady solves of every scheme in both
// tiers, a batch and a trace, and each must reproduce its fresh-list
// answer bit for bit: a single read of a stale entry would carry a
// NaN, or a value the solve never wrote, into the field.
func TestEquivalenceDirtyFreeList(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	p := randomProblem(t, &eqRNG{s: 0xd127}, 9, 7, 6)
	n := p.Grid.NumCells()
	hot := append([]float64(nil), p.Q...)
	for c := range hot {
		hot[c] *= 1.7
	}
	t0 := make([]float64, n)
	for c := range t0 {
		t0[c] = 320 + float64(c%5)
	}
	var solves []func() [][]float64
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		for _, prec := range []Precision{F64, F32} {
			for _, w := range []int{1, 2} {
				solves = append(solves, func() [][]float64 {
					res, err := SolveSteady(p, Options{Tol: 1e-10, Precond: pc, Precision: prec, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					return [][]float64{res.T}
				})
			}
		}
	}
	solves = append(solves, func() [][]float64 {
		batch, err := SolveSteadyBatch(p, [][]float64{nil, hot}, Options{Tol: 1e-10, Precond: Multigrid, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return [][]float64{batch[0].T, batch[1].T}
	}, func() [][]float64 {
		segs := []TraceSegment{{Dt: 1e-4, Steps: 3}, {Dt: 2e-4, Steps: 2, Q: hot}}
		tr, err := SolveTrace(p, t0, segs, Options{Tol: 1e-10, Precond: Multigrid, Workers: 1}, TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return [][]float64{tr.T}
	})

	nx, ny, nz := p.Grid.NX(), p.Grid.NY(), p.Grid.NZ()
	lengths := []int{nz, n}
	for nx > 1 || ny > 1 {
		nx, ny = len(mesh.CoarsenOffsets(nx))-1, len(mesh.CoarsenOffsets(ny))-1
		lengths = append(lengths, nx*ny*nz)
	}
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i, solve := range solves {
		// A collection empties every pool: the reference runs on a
		// drained list, the second run on a list holding NaN arrays
		// only.
		runtime.GC()
		runtime.GC()
		want := solve()
		runtime.GC()
		runtime.GC()
		for _, l := range lengths {
			for range 32 {
				a := make([]float64, l)
				for i := range a {
					a[i] = math.NaN()
				}
				putFloats(a)
			}
		}
		if a := getUncleared(n); !math.IsNaN(a[0]) {
			t.Fatal("the free list did not hand out a poisoned array")
		} else {
			putFloats(a)
		}
		for f, got := range solve() {
			if !bitIdentical(got, want[f]) {
				t.Errorf("solve %d field %d differs on a NaN-filled free list (rel %g)", i, f, relDiff(want[f], got))
			}
		}
	}
}
