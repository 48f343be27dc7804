package solver_test

import (
	"math"
	"testing"

	"thermalscaffold/internal/solver"
)

// quadraticField is a field whose cell c is a + b·p + d·p², with
// coefficients that differ from cell to cell.
func quadraticField(p float64, n int) []float64 {
	f := make([]float64, n)
	for c := range f {
		a, b, d := 300+float64(c), 0.5-0.01*float64(c), 0.25*float64(c%5)-0.6
		f[c] = a + b*p + d*p*p
	}
	return f
}

// TestContinuationQuadraticExact: on fields quadratic in the parameter,
// the guess is the field itself to rounding, also once a fourth pair
// has pushed the oldest out.
func TestContinuationQuadraticExact(t *testing.T) {
	const n = 64
	var c solver.Continuation
	// The order a bisection on [0, 1] visits.
	params := []float64{0, 0.5, 0.25, 0.375, 0.3125}
	for k, p := range params {
		if k >= 3 {
			got, want := c.Guess(p), quadraticField(p, n)
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > 1e-12*math.Abs(want[i]) {
					t.Fatalf("guess at p=%g: cell %d is %.17g, want %.17g", p, i, got[i], want[i])
				}
			}
		}
		c.Add(p, quadraticField(p, n))
	}
}

// TestContinuationFallsBack: before any pair the guess is nil (a cold
// start); with one or two pairs, or three that repeat a parameter, it
// is the last field itself.
func TestContinuationFallsBack(t *testing.T) {
	var c solver.Continuation
	if g := c.Guess(0.5); g != nil {
		t.Fatalf("guess before any pair: %v, want nil", g)
	}
	same := func(a, b []float64) bool { return len(a) == len(b) && &a[0] == &b[0] }
	f0, f1 := quadraticField(0, 8), quadraticField(1, 8)
	c.Add(0, f0)
	if !same(c.Guess(0.5), f0) {
		t.Error("one pair: guess is not the last field")
	}
	c.Add(1, f1)
	if !same(c.Guess(0.5), f1) {
		t.Error("two pairs: guess is not the last field")
	}
	f2 := quadraticField(1, 8)
	c.Add(1, f2)
	if !same(c.Guess(0.5), f2) {
		t.Error("repeated parameter: guess is not the last field")
	}
}

// TestContinuationGuessAllocs: a quadratic guess reuses one buffer,
// so after the first it allocates nothing.
func TestContinuationGuessAllocs(t *testing.T) {
	var c solver.Continuation
	for _, p := range []float64{0, 0.5, 0.25} {
		c.Add(p, quadraticField(p, 1024))
	}
	c.Guess(0.375)
	if a := testing.AllocsPerRun(100, func() { c.Guess(0.375) }); a != 0 {
		t.Errorf("Guess allocates %v times per call, want 0", a)
	}
}
