package solver

// Equivalence suite for the batch API and the persistent Engine.
// SolveSteadyBatch promises each item is bitwise identical to an
// independent SolveSteady with the same source field, and an Engine
// promises bitwise identity with a plain Options.Workers solve —
// both pinned here at Workers 1 and 8 and under -race (the Makefile
// `equivalence` target runs `-run 'Equivalence|Batch|Engine'`).

import (
	"strings"
	"testing"
)

// batchSources derives K deterministic source fields from the
// problem's own Q (scaled and shifted so the items genuinely differ).
func batchSources(p *Problem, k int) [][]float64 {
	qs := make([][]float64, k)
	for i := range qs {
		q := make([]float64, len(p.Q))
		for c := range q {
			q[c] = p.Q[c]*(0.5+0.25*float64(i)) + 1e6*float64((c+i)%5)
		}
		qs[i] = q
	}
	return qs
}

// withQ clones the problem with a replacement source field.
func withQ(p *Problem, q []float64) *Problem {
	cp := *p
	cp.Q = q
	return &cp
}

// TestBatchEquivalenceIndependentSolves: every batch item is bitwise
// identical to an independent SolveSteady, for each preconditioner at
// Workers 1 (exact serial path) and 8 (chunked reductions).
func TestBatchEquivalenceIndependentSolves(t *testing.T) {
	rng := &eqRNG{s: 0xBA7C4}
	p := randomProblem(t, rng, 14, 12, 10) // 1680 cells, 2 reduction chunks
	qs := batchSources(p, 3)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		for _, w := range []int{1, 8} {
			opts := Options{Tol: 1e-11, MaxIter: 100000, Precond: pc, Workers: w}
			batch, err := SolveSteadyBatch(p, qs, opts)
			if err != nil {
				t.Fatalf("precond %v workers %d: batch: %v", pc, w, err)
			}
			for i, q := range qs {
				ind, err := SolveSteady(withQ(p, q), opts)
				if err != nil {
					t.Fatalf("precond %v workers %d item %d: independent: %v", pc, w, i, err)
				}
				if !bitIdentical(batch[i].T, ind.T) {
					t.Errorf("precond %v workers %d item %d: batch field differs bitwise from independent solve (rel %g)",
						pc, w, i, relDiff(batch[i].T, ind.T))
				}
				if batch[i].Iterations != ind.Iterations {
					t.Errorf("precond %v workers %d item %d: batch took %d iterations, independent %d",
						pc, w, i, batch[i].Iterations, ind.Iterations)
				}
			}
		}
	}
}

// TestBatchEquivalenceNilItem: a nil source entry reuses p.Q and
// still matches the plain solve bitwise.
func TestBatchEquivalenceNilItem(t *testing.T) {
	rng := &eqRNG{s: 0x0B17}
	p := randomProblem(t, rng, 10, 9, 8)
	qs := batchSources(p, 2)
	res, err := SolveSteadyBatch(p, [][]float64{nil, qs[1]}, Options{Tol: 1e-11, MaxIter: 100000, Precond: ZLine, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SolveSteady(p, Options{Tol: 1e-11, MaxIter: 100000, Precond: ZLine, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(res[0].T, plain.T) {
		t.Error("nil batch item differs bitwise from SolveSteady with p.Q")
	}
}

// TestBatchValidation covers the per-item input checks: length
// mismatches and non-finite sources fail fast with the item index.
func TestBatchValidation(t *testing.T) {
	rng := &eqRNG{s: 0xBAD0}
	p := randomProblem(t, rng, 6, 5, 4)
	opts := Options{Tol: 1e-8, MaxIter: 10000}

	short := make([]float64, p.Grid.NumCells()-1)
	if _, err := SolveSteadyBatch(p, [][]float64{nil, short}, opts); err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Errorf("short item: err = %v, want item-1 length error", err)
	}

	bad := make([]float64, p.Grid.NumCells())
	bad[3] = nan()
	if _, err := SolveSteadyBatch(p, [][]float64{bad}, opts); err == nil || !strings.Contains(err.Error(), "item 0") {
		t.Errorf("NaN item: err = %v, want item-0 source error", err)
	}

	if res, err := SolveSteadyBatch(p, nil, opts); err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v, want empty success", res, err)
	}
}

// TestEngineEquivalence: a solve through a persistent Engine is
// bitwise identical to the same solve with Options.Workers alone, and
// the engine stays correct when reused across many solves (the
// placement-loop usage pattern).
func TestEngineEquivalence(t *testing.T) {
	rng := &eqRNG{s: 0xE4914E}
	probs := []*Problem{
		randomProblem(t, rng, 12, 10, 8),
		randomProblem(t, rng, 9, 9, 9),
		randomProblem(t, rng, 16, 6, 11),
	}
	for _, w := range []int{1, 4, 8} {
		eng := NewEngine(w)
		for pi, p := range probs {
			for _, pc := range []Preconditioner{ZLine, Multigrid} {
				plain, err := SolveSteady(p, Options{Tol: 1e-11, MaxIter: 100000, Precond: pc, Workers: w})
				if err != nil {
					t.Fatalf("workers %d problem %d plain: %v", w, pi, err)
				}
				viaEng, err := SolveSteady(p, Options{Tol: 1e-11, MaxIter: 100000, Precond: pc, Engine: eng})
				if err != nil {
					t.Fatalf("workers %d problem %d engine: %v", w, pi, err)
				}
				if !bitIdentical(plain.T, viaEng.T) {
					t.Errorf("workers %d problem %d precond %v: engine solve differs bitwise from plain solve", w, pi, pc)
				}
			}
		}
		eng.Close()
	}
}

// TestEngineBatch: the batch path through an Engine matches the batch
// path without one, completing the commutativity square
// (batch ↔ independent) × (engine ↔ plain workers).
func TestEngineBatch(t *testing.T) {
	rng := &eqRNG{s: 0xE9BA7}
	p := randomProblem(t, rng, 12, 12, 9)
	qs := batchSources(p, 3)
	opts := Options{Tol: 1e-11, MaxIter: 100000, Precond: Multigrid}

	optsW := opts
	optsW.Workers = 4
	plain, err := SolveSteadyBatch(p, qs, optsW)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(4)
	defer eng.Close()
	optsE := opts
	optsE.Engine = eng
	viaEng, err := SolveSteadyBatch(p, qs, optsE)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !bitIdentical(plain[i].T, viaEng[i].T) {
			t.Errorf("item %d: engine batch differs bitwise from plain batch", i)
		}
	}
}

// nan returns NaN without importing math just for one literal.
func nan() float64 {
	z := 0.0
	return z / z
}
