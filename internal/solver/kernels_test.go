package solver

import (
	"testing"

	"thermalscaffold/internal/parallel"
)

// TestInlineReductionsAllocateNothing: at Workers 2 a reduction over a
// vector too short to dispatch runs on the caller, and builds no
// closure that escapes — the paper flow's grids run every reduction
// that way at GOMAXPROCS workers, several per PCG iteration.
func TestInlineReductionsAllocateNothing(t *testing.T) {
	p := shapeProblem(t, 6, 6, 6)
	op := assemble(p)
	n := len(op.diag)
	kr := testKern(t, 2, n)
	if kr.pool.Serial() || kr.pool.Dispatches(parallel.NumChunks(n)) {
		t.Fatalf("want a 2-worker pool that runs %d-cell reductions inline", n)
	}
	rng := &eqRNG{s: 0xa110c}
	x, b, p0, z := mgRandVec(rng, n), mgRandVec(rng, n), mgRandVec(rng, n), mgRandVec(rng, n)
	r, ap, pn := make([]float64, n), make([]float64, n), make([]float64, n)
	kernels := map[string]func(){
		"dot":         func() { kr.dot(x, b) },
		"updateNorm":  func() { kr.updateNorm(x, r, p0, ap, 1e-3) },
		"applyDot":    func() { kr.applyDot(op, p0, ap) },
		"applyDirDot": func() { kr.applyDirDot(op, z, p0, pn, ap, 0.5) },
		"residual":    func() { kr.residual(op, x, b, r) },
	}
	for name, f := range kernels {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Errorf("%s: %.0f allocations per call, want 0", name, a)
		}
	}
}
