package stack

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"thermalscaffold/internal/solver"
)

// Spec.Solve runs on a private family entry and releases its problem,
// so every array a solve owns goes back to the solver's free list and
// the next solve of the same shape runs on it (see
// internal/solver/freelist.go). These tests pin that the reuse moves
// no bit and that it removes the per-solve allocation.

// reuseOpts are the solver settings the tests below cover: the two
// hierarchy schemes in both precision tiers.
var reuseOpts = []solver.Options{
	{Precond: solver.ZLine, Precision: solver.F64},
	{Precond: solver.ZLine, Precision: solver.F32},
	{Precond: solver.Multigrid, Precision: solver.F64},
	{Precond: solver.Multigrid, Precision: solver.F32},
}

func solveField(t *testing.T, s *Spec, opts solver.Options) []float64 {
	t.Helper()
	opts.Tol, opts.MaxIter = 1e-7, 60000
	r, err := s.Solve(opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", opts.Precond, opts.Precision, err)
	}
	return r.Field.T
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEquivalenceDirtyBuffers solves stack B, then stack A (same
// shape, other pillar coverage), then B again: B's second solve runs
// on the arrays A left behind and must still give B's first answer
// bit for bit.
func TestEquivalenceDirtyBuffers(t *testing.T) {
	// A collection empties the free list; paused, it keeps what A
	// returned for B's second solve.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := gemminiSpec(4, ScaffoldedBEOL(), 0.3)
	b := gemminiSpec(4, ScaffoldedBEOL(), 0.05)
	for _, opts := range reuseOpts {
		opts.Workers = 1
		first := solveField(t, b, opts)
		other := solveField(t, a, opts)
		again := solveField(t, b, opts)
		if sameBits(first, other) {
			t.Fatalf("%s/%s: stacks A and B solve to the same field", opts.Precond, opts.Precision)
		}
		if !sameBits(first, again) {
			t.Errorf("%s/%s: stack B solved after stack A differs from its first solve", opts.Precond, opts.Precision)
		}
	}
}

// TestEquivalenceConcurrentPrivateSolves runs private solves of one
// shape from several goroutines at once, so they draw from and return
// to the same pools concurrently. Each answer must equal its serial
// answer bit for bit.
func TestEquivalenceConcurrentPrivateSolves(t *testing.T) {
	coverages := []float64{0.05, 0.1, 0.2, 0.3}
	for _, opts := range reuseOpts {
		opts.Tol, opts.MaxIter, opts.Workers = 1e-7, 60000, 2
		want := make([][]float64, len(coverages))
		for i, c := range coverages {
			want[i] = solveField(t, gemminiSpec(4, ScaffoldedBEOL(), c), opts)
		}
		const goroutines = 4
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range coverages {
					i := (g + k) % len(coverages)
					r, err := gemminiSpec(4, ScaffoldedBEOL(), coverages[i]).Solve(opts)
					if err != nil {
						t.Errorf("%s/%s coverage %g: %v", opts.Precond, opts.Precision, coverages[i], err)
						return
					}
					if !sameBits(r.Field.T, want[i]) {
						t.Errorf("%s/%s coverage %g: concurrent solve differs from the serial one", opts.Precond, opts.Precision, coverages[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestSpecSolveAllocs pins the allocation budget of a warm Spec.Solve:
// each one allocates at most about two n-vectors, of which the field
// it returns is one; the problem, operator, stencil, PCG vectors and
// hierarchy all come back from the free list. The budget covers the
// F64 tier, whose preconditioner arrays are float64; the F32 tier
// makes its float32 ones. Workers 1 keeps the per-call closures of the
// pooled kernels out of the count.
func TestSpecSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	// A collection empties the free list, which would make the budget
	// depend on when one runs. A sync.Pool also keeps one array per P
	// in a slot that only that P reads, so a solve that moved to
	// another P could miss an array the pool holds until it has grown
	// one per P; one P makes the count exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := gemminiSpec(4, ScaffoldedBEOL(), 0.1)
	for _, pc := range []solver.Preconditioner{solver.ZLine, solver.Multigrid} {
		opts := solver.Options{Precond: pc, Workers: 1}
		vec := float64(8 * len(solveField(t, spec, opts))) // the warm-up
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			solveField(t, spec, opts)
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc - before.TotalAlloc)
			if i == 0 {
				t.Logf("%s: %.0f bytes per solve (n-vector %.0f bytes)", pc, bytes, vec)
			}
			if bytes > 2*vec {
				t.Errorf("%s solve %d: a warm Spec.Solve allocates %.0f bytes, %.1f n-vectors; budget 2",
					pc, i, bytes, bytes/vec)
			}
		}
	}
}
