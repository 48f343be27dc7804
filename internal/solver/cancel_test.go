package solver

// Cancellation suite: Options.Ctx must stop a solve within one
// iteration, return the best iterate so far flagged as cancelled, and
// leave no goroutines behind (the worker pool shuts down with the
// solve).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"thermalscaffold/internal/telemetry"
)

// checkNoGoroutineLeak fails the test if the goroutine count does not
// return to its pre-test baseline. Worker-pool goroutines park on
// channel receives and exit on close, so a short retry loop absorbs
// scheduling latency.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var cancelWorkerCounts = []int{1, 8}

// TestSolveSteadyCancellation: cancelling mid-solve (from the
// per-iteration test hook, so the cancellation lands at a known
// iteration) stops PCG within one iteration, at both the serial and
// parallel worker counts, without leaking pool goroutines.
func TestSolveSteadyCancellation(t *testing.T) {
	rng := &eqRNG{s: 99}
	p := randomProblem(t, rng, 16, 14, 10)
	for _, workers := range cancelWorkerCounts {
		t.Run(map[int]string{1: "serial", 8: "workers8"}[workers], func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const cancelAt = 3
			testBreakdownHook = func(pc Preconditioner, it int) bool {
				if it == cancelAt {
					cancel()
				}
				return false
			}
			defer func() { testBreakdownHook = nil }()
			_, err := SolveSteady(p, Options{
				Tol: 1e-14, MaxIter: 20000, Workers: workers, Precond: Jacobi, Ctx: ctx,
			})
			ce, ok := AsConvergenceError(err)
			if !ok {
				t.Fatalf("error is not a *ConvergenceError: %v", err)
			}
			if ce.Reason != ReasonCancelled {
				t.Fatalf("reason = %v, want cancelled", ce.Reason)
			}
			// The cancel lands during iteration cancelAt; the ctx check
			// runs at the top of the next one.
			if ce.Iterations > cancelAt+1 {
				t.Fatalf("solver ran %d iterations past a cancel at iteration %d", ce.Iterations, cancelAt)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not unwrap to context.Canceled: %v", err)
			}
			if len(ce.Best) != len(p.Q) {
				t.Fatalf("cancelled solve did not return a best iterate")
			}
			checkNoGoroutineLeak(t, baseline)
		})
	}
}

// TestSolveSteadyPreCancelled: an already-cancelled context stops the
// solve before the first full iteration completes.
func TestSolveSteadyPreCancelled(t *testing.T) {
	rng := &eqRNG{s: 17}
	p := randomProblem(t, rng, 10, 10, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range cancelWorkerCounts {
		baseline := runtime.NumGoroutine()
		_, err := SolveSteady(p, Options{Tol: 1e-8, MaxIter: 20000, Workers: workers, Ctx: ctx})
		ce, ok := AsConvergenceError(err)
		if !ok || ce.Reason != ReasonCancelled {
			t.Fatalf("workers=%d: want cancelled ConvergenceError, got %v", workers, err)
		}
		if ce.Iterations != 0 {
			t.Fatalf("workers=%d: %d iterations ran under a pre-cancelled context", workers, ce.Iterations)
		}
		checkNoGoroutineLeak(t, baseline)
	}
}

// TestTransientCancellation: a deadline context stops a transient run
// between steps (or inside a step) with a wrapped context error.
func TestTransientCancellation(t *testing.T) {
	rng := &eqRNG{s: 12}
	p := randomProblem(t, rng, 10, 10, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := NewTransient(p, make([]float64, len(p.Q)), Options{Tol: 1e-8, MaxIter: 20000, Workers: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Run(10, 1e-6)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
}

// TestEquivalenceTelemetry: attaching a telemetry collector and a
// background context must not change a single bit of the solution at
// either worker count — observability is observational. Named
// *Equivalence* so the Makefile equivalence target (race detector,
// -count=2) picks it up.
func TestEquivalenceTelemetry(t *testing.T) {
	rng := &eqRNG{s: 0x7e1}
	for _, size := range [][3]int{{8, 8, 9}, {14, 12, 10}} {
		p := randomProblem(t, rng, size[0], size[1], size[2])
		for _, workers := range []int{1, 8} {
			for _, pc := range []Preconditioner{Jacobi, ZLine, Multigrid} {
				base := Options{Tol: 1e-9, MaxIter: 20000, Workers: workers, Precond: pc}
				plain, err := SolveSteady(p, base)
				if err != nil {
					t.Fatal(err)
				}
				instrumented := base
				instrumented.Telemetry = telemetry.New()
				instrumented.Ctx = context.Background()
				traced, err := SolveSteady(p, instrumented)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(plain.T, traced.T) {
					t.Fatalf("size=%v workers=%d precond=%v: telemetry perturbed the solution (rel %g)",
						size, workers, pc, relDiff(plain.T, traced.T))
				}
				if plain.Iterations != traced.Iterations {
					t.Fatalf("iteration counts differ with telemetry: %d vs %d", plain.Iterations, traced.Iterations)
				}
				if got := instrumented.Telemetry.Counter(telemetry.CounterSolves); got != 1 {
					t.Fatalf("solve counter = %d, want 1", got)
				}
				if got := instrumented.Telemetry.Counter(telemetry.CounterIterations); got != int64(traced.Iterations) {
					t.Fatalf("iteration counter = %d, want %d", got, traced.Iterations)
				}
			}
		}
	}
}
