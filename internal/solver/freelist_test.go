package solver

import (
	"fmt"
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

// TestEquivalenceReturnedSlicesSurviveRecycling: no slice an entry
// point returns aliases an array the free list hands out again. It
// keeps every kind of returned slice — Result.T and Residuals (single
// and batch), ConvergenceError.Best and History, Transient.Field and
// Run, trace checkpoints and TraceResult.T — then, with the garbage
// collector paused, poisons every array the free list holds with NaN,
// adds NaN arrays of every length a solve draws, and runs more
// same-size private solves, a batch, a transient and a trace on it,
// twice. Each kept slice must still hold its bits: one that was handed
// back to the list would have been poisoned or overwritten.
func TestEquivalenceReturnedSlicesSurviveRecycling(t *testing.T) {
	p := randomProblem(t, &eqRNG{s: 0xa11a5}, 9, 7, 6)
	n := p.Grid.NumCells()
	hot := append([]float64(nil), p.Q...)
	for c := range hot {
		hot[c] *= 1.7
	}
	t0 := make([]float64, n)
	for c := range t0 {
		t0[c] = 320 + float64(c%5)
	}
	segs := []TraceSegment{{Dt: 1e-4, Steps: 3}, {Dt: 2e-4, Steps: 2, Q: hot}}
	type held struct {
		name      string
		got, want []float64
	}
	var kept []held
	keep := func(name string, s []float64) {
		if len(s) == 0 {
			t.Fatalf("%s: empty slice", name)
		}
		kept = append(kept, held{name, s, append([]float64(nil), s...)})
	}
	// solves runs one of each entry point; with keep it holds every
	// slice they return, and with a no-op it only draws and recycles.
	solves := func(keep func(string, []float64)) {
		for _, pc := range []Preconditioner{Multigrid, ZLine} {
			res, err := SolveSteady(p, Options{Tol: 1e-10, Precond: pc, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			keep(pc.String()+" Result.T", res.T)
			keep(pc.String()+" Result.Residuals", res.Residuals)
		}
		batch, err := SolveSteadyBatch(p, [][]float64{nil, hot}, Options{Tol: 1e-10, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range batch {
			keep(fmt.Sprintf("batch item %d T", i), r.T)
			keep(fmt.Sprintf("batch item %d Residuals", i), r.Residuals)
		}
		_, err = SolveSteady(p, Options{Tol: 1e-14, MaxIter: 3, Workers: 1})
		ce, ok := AsConvergenceError(err)
		if !ok {
			t.Fatalf("MaxIter=3 solve: %v", err)
		}
		keep("ConvergenceError.Best", ce.Best)
		keep("ConvergenceError.History", ce.History)
		tr, err := NewTransient(p, t0, Options{Tol: 1e-10, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if err := tr.Step(1e-4); err != nil {
				t.Fatal(err)
			}
			keep(fmt.Sprintf("Transient.Field after step %d", s), tr.Field())
		}
		last, err := tr.Run(2, 2e-4)
		if err != nil {
			t.Fatal(err)
		}
		keep("Transient.Run", last)
		tr.Close()
		res, err := SolveTrace(p, t0, segs, Options{Tol: 1e-10, Workers: 1}, TraceOptions{
			OnCheckpoint: func(cp *TraceCheckpoint) error {
				keep(fmt.Sprintf("checkpoint %d", cp.Segment), cp.T)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		keep("TraceResult.T", res.T)
	}
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	solves(keep)

	nx, ny, nz := p.Grid.NX(), p.Grid.NY(), p.Grid.NZ()
	lengths := []int{nz, nx * nz, n}
	for nx > 1 || ny > 1 {
		nx, ny = len(mesh.CoarsenOffsets(nx))-1, len(mesh.CoarsenOffsets(ny))-1
		lengths = append(lengths, nx*ny*nz)
	}
	for round := 0; round < 2; round++ {
		// Every array the list holds — a returned slice among them, if
		// one was handed back — is drawn, filled with NaN and put back,
		// with 32 more NaN arrays of each length.
		for _, l := range lengths {
			var all [][]float64
			for a := recycled(l); a != nil; a = recycled(l) {
				all = append(all, a)
			}
			for range 32 {
				all = append(all, make([]float64, l))
			}
			for _, a := range all {
				for i := range a {
					a[i] = math.NaN()
				}
				putFloats(a)
			}
		}
		// The race detector drops sync.Pool puts at random, so only a
		// plain run can insist that the list hands the NaN arrays out.
		if a := getUncleared(n); !raceEnabled && !math.IsNaN(a[0]) {
			t.Fatal("the free list did not hand out a poisoned array")
		} else {
			putFloats(a)
		}
		solves(func(string, []float64) {})
	}
	for _, k := range kept {
		if !bitIdentical(k.got, k.want) {
			t.Errorf("%s changed after later solves recycled their arrays", k.name)
		}
	}
}
