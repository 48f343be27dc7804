package solver

// Robustness regression suite: non-convergence, stagnation, and
// breakdown must surface as typed *ConvergenceError values that name
// the preconditioner that ran — never as a quietly wrong temperature
// field.

import (
	"errors"
	"math"
	"strings"
	"testing"

	"thermalscaffold/internal/mesh"
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
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
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
// residual goes that many iterations without a new best. Z-line has
// no lateral coarse correction, so on this problem its residual
// wanders. The solve is deterministic (fixed seed, Workers=1), so the
// plateau is stable.
func TestStagnationDetection(t *testing.T) {
	p := illConditionedProblem(t)
	defer func(w int) { stagnationWindow = w }(stagnationWindow)
	stagnationWindow = 5
	_, err := SolveSteady(p, Options{
		Tol: 1e-16, MaxIter: 20000, Workers: 1, Precond: ZLine,
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

// TestBreakdownTyped: a finite source whose right-hand side
// overflows (1e308 W/m³ in 8 m³ cells) breaks every scheme down before
// its first iteration is complete. The error is a typed breakdown
// naming the scheme that ran, with no restart on another one.
func TestBreakdownTyped(t *testing.T) {
	g, err := mesh.Uniform(8, 8, 8, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProblem(g)
	for c := range p.Q {
		p.SetIsotropic(c, 2)
		p.Q[c] = 1e308
	}
	p.Bounds[ZMin] = DirichletBC(300)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		_, err := SolveSteady(p, Options{Tol: 1e-8, Workers: 1, Precond: pc})
		ce, ok := AsConvergenceError(err)
		if !ok {
			t.Fatalf("%v: error is not a *ConvergenceError: %v", pc, err)
		}
		if ce.Reason != ReasonBreakdown || ce.Precond != pc || ce.Iterations != 0 {
			t.Fatalf("%v: reason/precond/iterations = %v/%v/%d, want breakdown/%v/0", pc, ce.Reason, ce.Precond, ce.Iterations, pc)
		}
		if want := "(" + pc.String() + " preconditioner)"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: error %q does not name %s", pc, err, want)
		}
	}
}

// TestTransientNonConvergenceTyped: transient steps route through the
// same typed-error path.
func TestTransientNonConvergenceTyped(t *testing.T) {
	p := illConditionedProblem(t)
	tr, err := NewTransient(p, make([]float64, len(p.Q)), Options{Tol: 1e-14, MaxIter: 3, Workers: 1})
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

// TestZeroRHSReturnsZero: with no sources and a 0 K Dirichlet face the
// right-hand side is zero, so the SPD system's solution is exactly
// zero — whatever the initial guess held.
func TestZeroRHSReturnsZero(t *testing.T) {
	p := uniformProblem(t, 3, 3, 3, 4.0)
	p.Bounds[ZMin] = DirichletBC(0)
	guess := make([]float64, p.Grid.NumCells())
	for c := range guess {
		guess[c] = 5
	}
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		r, err := SolveSteady(p, Options{Precond: pc, Workers: 1, InitialGuess: guess})
		if err != nil {
			t.Fatalf("%v: %v", pc, err)
		}
		if r.Iterations != 0 {
			t.Errorf("%v: %d iterations, want 0", pc, r.Iterations)
		}
		for c, v := range r.T {
			if v != 0 {
				t.Fatalf("%v: cell %d holds %g K, want 0", pc, c, v)
			}
		}
	}
}
