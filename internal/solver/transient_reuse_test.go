package solver

import (
	"runtime"
	"runtime/debug"
	"testing"

	"thermalscaffold/internal/parallel"
)

// TestTransientWorkerNoRegression guards the structural cause of the
// historical 1→4 worker transient slowdown: every Step used to build
// (and tear down) a fresh worker pool and a fresh preconditioner, so
// adding workers added per-step setup cost faster than it removed
// solve cost. The guard is deliberately structural, not a timing
// comparison — wall-clock ratios are unmeasurable on single-core CI
// runners, while pool-construction counts are exact everywhere:
// after NewTransient, stepping at a fixed Δt must create zero pools
// and must not rebuild the leased augmented stencil.
func TestTransientWorkerNoRegression(t *testing.T) {
	p := uniformProblem(t, 12, 10, 8, 4.0)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 350
	}
	for _, workers := range []int{1, 4} {
		tr, err := NewTransient(p, init, Options{Tol: 1e-9, Workers: workers, Precond: ZLine})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		pools := parallel.PoolsCreated()
		for s := 0; s < 4; s++ {
			if err := tr.Step(1e-4); err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, s, err)
			}
		}
		if d := parallel.PoolsCreated() - pools; d != 0 {
			t.Errorf("workers=%d: stepping created %d worker pools, want 0 (pinned pool must be reused)", workers, d)
		}
		// Fixed Δt ⇒ fixed augmented matrix ⇒ the leased context's
		// diagonal and cached preconditioner survive across steps.
		lease := tr.lease
		if lease.aug.diag == nil {
			t.Fatalf("workers=%d: augmented diagonal not built", workers)
		}
		diag0 := &lease.aug.diag[0]
		if len(lease.pcs) == 0 {
			t.Errorf("workers=%d: preconditioner cache empty after stepping", workers)
		}
		if err := tr.Step(1e-4); err != nil {
			t.Fatal(err)
		}
		// The same lease carries the same preconditioner cache.
		if tr.lease != lease || &tr.lease.aug.diag[0] != diag0 {
			t.Errorf("workers=%d: same-Δt step rebuilt the augmented diagonal", workers)
		}
		// A Δt change is a new matrix: the step must run on a context
		// with its own diagonal.
		if err := tr.Step(2e-4); err != nil {
			t.Fatal(err)
		}
		if &tr.lease.aug.diag[0] == diag0 {
			t.Errorf("workers=%d: Δt change did not rebuild the augmented diagonal", workers)
		}
		tr.Close()
		tr.Close() // idempotent
	}
}

// TestTransientSetSourcesKeepsMatrix: re-sourcing rewrites only the
// rhs — the operator matrix, its stencil, and the cached
// preconditioner survive, and the stepped field is bitwise identical
// to a freshly built integrator carrying the same sources from the
// start.
func TestTransientSetSourcesKeepsMatrix(t *testing.T) {
	p := uniformProblem(t, 10, 9, 6, 4.0)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	n := p.Grid.NumCells()
	init := make([]float64, n)
	for i := range init {
		init[i] = 350
	}
	q2 := make([]float64, n)
	for i := range q2 {
		q2[i] = 5e8 * float64(i%7) / 7
	}
	const dt = 2e-4

	// Reference: a fresh integrator whose problem already carries q2.
	p2 := uniformProblem(t, 10, 9, 6, 4.0)
	p2.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	copy(p2.Q, q2)
	ref, err := NewTransient(p2, init, Options{Tol: 1e-12, Workers: 1, Precond: ZLine})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Run(3, dt)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := NewTransient(p, init, Options{Tol: 1e-12, Workers: 1, Precond: ZLine})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Prime the matrix caches with a step at the same Δt, then
	// re-source and restart the field.
	if err := tr.Step(dt); err != nil {
		t.Fatal(err)
	}
	diag0 := &tr.lease.aug.diag[0]
	if err := tr.SetSources(q2); err != nil {
		t.Fatal(err)
	}
	if &tr.lease.aug.diag[0] != diag0 {
		t.Error("SetSources invalidated the augmented diagonal (matrix does not depend on sources)")
	}
	copy(tr.cur, init)
	got, err := tr.Run(3, dt)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("cell %d: re-sourced field %v differs bitwise from fresh integrator %v", c, got[c], want[c])
		}
	}

	// Length mismatch still rejected.
	if err := tr.SetSources(q2[:n-1]); err == nil {
		t.Error("short source field accepted")
	}
}

// TestTransientFieldNeverOverwritten: a Field() result a caller holds
// keeps its values across later steps, predictor resets and Δt
// changes — the integrator's own trace loop recycles field buffers,
// a direct NewTransient user's steps never do.
func TestTransientFieldNeverOverwritten(t *testing.T) {
	p := uniformProblem(t, 6, 5, 4, 4.0)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range p.Q {
		p.Q[c] = 1e9
	}
	init := make([]float64, p.Grid.NumCells())
	for i := range init {
		init[i] = 350
	}
	tr, err := NewTransient(p, init, Options{Tol: 1e-9, Workers: 1, Precond: Multigrid})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var held, kept [][]float64
	step := func(dt float64) {
		t.Helper()
		if err := tr.Step(dt); err != nil {
			t.Fatal(err)
		}
		held = append(held, tr.Field())
		kept = append(kept, append([]float64(nil), tr.Field()...))
	}
	for s := 0; s < 4; s++ {
		step(1e-4)
	}
	hot := append([]float64(nil), p.Q...)
	for c := range hot {
		hot[c] *= 2
	}
	if err := tr.SetSources(hot); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		step(2e-4)
	}
	for s, f := range held {
		if !bitIdentical(f, kept[s]) {
			t.Errorf("step %d's field was overwritten by a later step", s)
		}
	}
}

// TestTraceRecyclesFields: SolveTrace hands out only copies of the
// field, so its steps solve into a fixed set of rotating buffers. The
// trace's set-up — operator, augmented system, PCG vectors, hierarchy
// — allocates the same for any length, so 40 more steps must cost
// next to nothing; a field per step would be 40 n-vectors.
func TestTraceRecyclesFields(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := uniformProblem(t, 8, 8, 6, 4.0)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	n := p.Grid.NumCells()
	hot := make([]float64, n)
	for c := range p.Q {
		p.Q[c] = 1e9
		hot[c] = 2e9
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 350
	}
	opts := Options{Tol: 1e-9, Workers: 1, Precond: Multigrid}
	fields := func(steps int) float64 {
		segs := []TraceSegment{{Dt: 1e-4, Steps: steps}, {Dt: 1e-4, Steps: steps, Q: hot}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SolveTrace(p, init, segs, opts, TraceOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(8*n)
	}
	fields(10) // warm the free list
	short, long := fields(10), fields(30)
	if extra := long - short; extra > 4 {
		t.Errorf("40 more trace steps allocate %.1f more n-vectors (%.1f → %.1f); want a fixed set of fields", extra, short, long)
	}
}
