package solver

// Robustness regression suite: non-convergence, stagnation, and
// breakdown must surface as typed *ConvergenceError values — never as
// a quietly wrong temperature field — and breakdown must walk the
// preconditioner fallback ladder (Multigrid → ZLine → Jacobi),
// counted and logged through telemetry.

import (
	"errors"
	"log"
	"math"
	"strings"
	"testing"

	"thermalscaffold/internal/telemetry"
)

// illConditionedProblem builds a problem PCG cannot finish in a
// handful of iterations: strong conductivity contrast (8 orders of
// magnitude between neighboring cells) on a grid large enough that
// the Krylov space needs many dimensions.
func illConditionedProblem(t *testing.T) *Problem {
	t.Helper()
	rng := &eqRNG{s: 0xbad}
	p := randomProblem(t, rng, 12, 12, 8)
	for c := range p.KX {
		scale := math.Pow(10, 8*rng.float()-4)
		p.KX[c] *= scale
		p.KY[c] *= scale
		p.KZ[c] *= scale
	}
	return p
}

// TestNonConvergenceTyped: with a tiny MaxIter on an ill-conditioned
// problem, every preconditioner returns a *ConvergenceError with
// ReasonMaxIter, populated residual history, and a usable best
// iterate — not a silent partial field.
func TestNonConvergenceTyped(t *testing.T) {
	p := illConditionedProblem(t)
	const maxIter = 5
	for _, pc := range []Preconditioner{Jacobi, ZLine, Multigrid} {
		t.Run(pc.String(), func(t *testing.T) {
			res, err := SolveSteady(p, Options{Tol: 1e-14, MaxIter: maxIter, Workers: 1, Precond: pc})
			if err == nil {
				t.Fatalf("expected non-convergence, got result with residual %g", res.Residual)
			}
			if res != nil {
				t.Fatalf("non-nil result alongside error")
			}
			ce, ok := AsConvergenceError(err)
			if !ok {
				t.Fatalf("error is not a *ConvergenceError: %v", err)
			}
			if ce.Reason != ReasonMaxIter {
				t.Fatalf("reason = %v, want %v (err: %v)", ce.Reason, ReasonMaxIter, err)
			}
			if ce.Method != "pcg" || ce.Precond != pc {
				t.Fatalf("method/precond = %q/%v, want pcg/%v", ce.Method, ce.Precond, pc)
			}
			if ce.Iterations != maxIter {
				t.Fatalf("iterations = %d, want %d", ce.Iterations, maxIter)
			}
			if len(ce.History) != maxIter {
				t.Fatalf("history has %d entries, want %d", len(ce.History), maxIter)
			}
			for i, r := range ce.History {
				if math.IsNaN(r) || r <= 0 {
					t.Fatalf("history[%d] = %g", i, r)
				}
			}
			if len(ce.Best) != len(p.Q) {
				t.Fatalf("best iterate has %d entries, want %d", len(ce.Best), len(p.Q))
			}
			if !(ce.BestResidual > 0) || math.IsInf(ce.BestResidual, 0) {
				t.Fatalf("best residual = %g", ce.BestResidual)
			}
		})
	}
}

// TestStagnationDetection: a short stagnation window trips
// ReasonStagnation well before MaxIter when PCG's non-monotone
// residual goes that many iterations without a new best. The solve is
// deterministic (fixed seed, Workers=1), so the plateau is stable.
func TestStagnationDetection(t *testing.T) {
	p := illConditionedProblem(t)
	defer func(w int) { stagnationWindow = w }(stagnationWindow)
	stagnationWindow = 5
	_, err := SolveSteady(p, Options{
		Tol: 1e-16, MaxIter: 20000, Workers: 1, Precond: Jacobi,
	})
	ce, ok := AsConvergenceError(err)
	if !ok {
		t.Fatalf("error is not a *ConvergenceError: %v", err)
	}
	if ce.Reason != ReasonStagnation {
		t.Fatalf("reason = %v, want %v (err: %v)", ce.Reason, ReasonStagnation, err)
	}
	if ce.Iterations >= 20000 {
		t.Fatalf("stagnation only detected at the MaxIter boundary (%d iterations)", ce.Iterations)
	}
	// The best iterate must correspond to the best residual seen, which
	// beats the final (plateaued) one.
	if !(ce.BestResidual <= ce.Residual) {
		t.Fatalf("best residual %g worse than final %g", ce.BestResidual, ce.Residual)
	}
}

// TestBreakdownFallback: an injected multigrid breakdown must walk
// the fallback ladder, succeed on a healthier preconditioner, record
// the abandoned ones on the Result, count the events, and log them.
func TestBreakdownFallback(t *testing.T) {
	rng := &eqRNG{s: 21}
	p := randomProblem(t, rng, 10, 9, 7)
	testBreakdownHook = func(pc Preconditioner, iteration int) bool {
		return pc == Multigrid && iteration == 2
	}
	defer func() { testBreakdownHook = nil }()

	tel := telemetry.New()
	var logBuf strings.Builder
	tel.SetLogger(log.New(&logBuf, "", 0))
	res, err := SolveSteady(p, Options{
		Tol: 1e-8, MaxIter: 20000, Workers: 1, Precond: Multigrid, Telemetry: tel,
	})
	if err != nil {
		t.Fatalf("fallback ladder did not rescue the solve: %v", err)
	}
	if len(res.Fallbacks) != 1 || res.Fallbacks[0] != Multigrid {
		t.Fatalf("fallbacks = %v, want [multigrid]", res.Fallbacks)
	}
	if got := tel.Counter(telemetry.CounterFallbacks); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "falling back to zline") {
		t.Fatalf("fallback not logged; log: %q", logBuf.String())
	}
	// The rescued solve must match a straight ZLine solve bit for bit:
	// the ladder restarts from the same initial state.
	ref, err := SolveSteady(p, Options{Tol: 1e-8, MaxIter: 20000, Workers: 1, Precond: ZLine})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(res.T, ref.T) {
		t.Fatalf("fallback solve differs from direct zline solve (rel %g)", relDiff(res.T, ref.T))
	}
}

// TestBreakdownExhaustsLadder: when every rung breaks down, the error
// is the last rung's typed breakdown, not a success.
func TestBreakdownExhaustsLadder(t *testing.T) {
	rng := &eqRNG{s: 33}
	p := randomProblem(t, rng, 6, 6, 5)
	testBreakdownHook = func(pc Preconditioner, iteration int) bool { return iteration == 1 }
	defer func() { testBreakdownHook = nil }()

	tel := telemetry.New()
	tel.SetLogger(log.New(&strings.Builder{}, "", 0))
	_, err := SolveSteady(p, Options{
		Tol: 1e-8, MaxIter: 1000, Workers: 1, Precond: Multigrid, Telemetry: tel,
	})
	ce, ok := AsConvergenceError(err)
	if !ok {
		t.Fatalf("error is not a *ConvergenceError: %v", err)
	}
	if ce.Reason != ReasonBreakdown || ce.Precond != Jacobi {
		t.Fatalf("reason/precond = %v/%v, want breakdown/jacobi", ce.Reason, ce.Precond)
	}
	if got := tel.Counter(telemetry.CounterFallbacks); got != 2 {
		t.Fatalf("fallback counter = %d, want 2", got)
	}
}

// TestTransientNonConvergenceTyped: transient steps route through the
// same typed-error path.
func TestTransientNonConvergenceTyped(t *testing.T) {
	p := illConditionedProblem(t)
	tr, err := NewTransient(p, make([]float64, len(p.Q)), Options{Tol: 1e-14, MaxIter: 3, Workers: 1, Precond: Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Run(3, 1e-6)
	ce, ok := AsConvergenceError(err)
	if !ok {
		t.Fatalf("error is not a *ConvergenceError: %v", err)
	}
	if ce.Reason != ReasonMaxIter {
		t.Fatalf("reason = %v, want max-iterations", ce.Reason)
	}
	if !errors.As(err, &ce) {
		t.Fatal("errors.As failed through the wrapping chain")
	}
}
