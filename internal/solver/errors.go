package solver

import (
	"errors"
	"fmt"
)

// FailureReason classifies why an iterative solve stopped without
// converging. See DESIGN.md §8 for the full taxonomy.
type FailureReason int

const (
	// ReasonMaxIter: the iteration budget ran out while the residual
	// was still (slowly) improving.
	ReasonMaxIter FailureReason = iota
	// ReasonStagnation: no new best residual within 1000 consecutive
	// iterations — the solve is wedged (or has hit the floating-point
	// floor above the requested tolerance) and more iterations will
	// not help.
	ReasonStagnation
	// ReasonBreakdown: the iteration produced NaN/Inf, lost positive
	// definiteness (pᵀAp ≤ 0), or the preconditioner failed — the
	// iterate can no longer be trusted. Breakdown is the trigger for
	// the automatic preconditioner fallback ladder.
	ReasonBreakdown
	// ReasonCancelled: Options.Ctx was cancelled or its deadline
	// passed; the returned best iterate is a deadline-bounded partial
	// result, not a converged field.
	ReasonCancelled
)

func (r FailureReason) String() string {
	switch r {
	case ReasonMaxIter:
		return "max-iterations"
	case ReasonStagnation:
		return "stagnation"
	case ReasonBreakdown:
		return "breakdown"
	case ReasonCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("FailureReason(%d)", int(r))
}

// ConvergenceError is the typed failure of an iterative solve. Every
// public solve entry point (SolveSteady, SolveSteadyBatch, SolveTrace,
// Transient.Step/Run, and everything layered on them) surfaces
// non-convergence, divergence, breakdown, and cancellation as a
// *ConvergenceError so callers can distinguish "ran out of budget
// with a usable partial field" from "the numbers are garbage" instead
// of parsing error strings.
type ConvergenceError struct {
	// Method is the iteration that failed ("pcg" for every solve).
	Method string
	// Precond is the preconditioner in use when the failure occurred.
	Precond Preconditioner
	Reason  FailureReason
	// Iterations completed before the stop.
	Iterations int
	// Residual is the last relative residual ‖b−A·x‖/‖b‖ observed.
	Residual float64
	// History is the per-iteration relative residual trace.
	History []float64
	// Best is the best iterate available at the stop (nil when the
	// failure happened before any iterate existed, e.g. an immediate
	// breakdown). For cancellation this is the deadline-bounded
	// partial result the caller may choose to use, flagged by Reason.
	Best []float64
	// BestResidual is the relative residual of Best.
	BestResidual float64
	// Err is the underlying cause when one exists (context.Canceled,
	// context.DeadlineExceeded, or a breakdown detail); it is
	// reachable through errors.Is/errors.As via Unwrap.
	Err error
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("solver: %s (%s preconditioner) %s after %d iterations (residual %g)",
		e.Method, e.Precond, e.Reason, e.Iterations, e.Residual)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause (e.g. context.Canceled) to
// errors.Is / errors.As.
func (e *ConvergenceError) Unwrap() error { return e.Err }

// AsConvergenceError unwraps err into a *ConvergenceError, following
// wrapping chains.
func AsConvergenceError(err error) (*ConvergenceError, bool) {
	var ce *ConvergenceError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}
