package solver

// Input-ownership suite: every exported entry point reads the slices
// it is handed and writes none of them. Callers reuse one problem
// across many solves (a sweep, a trace after a steady solve), so a
// write to Problem.Q, a source override, a start field or a guess
// would silently change the next answer.

import (
	"math"
	"testing"
)

// TestEntryPointsLeaveInputs runs SolveSteady, SolveSteadyBatch,
// NewTransient/Step/SetSources/Run, SolveTrace (with source overrides
// and a resume) and Assemble on one problem, privately and on a
// cached family, and checks every input slice bit for bit after each.
func TestEntryPointsLeaveInputs(t *testing.T) {
	p := traceProblem(t)
	g := p.Grid
	n := g.NumCells()
	p.ZPlaneTBR = make([]float64, g.NZ()-1)
	for k := range p.ZPlaneTBR {
		p.ZPlaneTBR[k] = 1e-9
	}
	qs := batchSources(p, 2)
	segs := traceSchedule(p)
	t0 := make([]float64, n)
	guess := make([]float64, n)
	for c := range t0 {
		t0[c] = 373.15 + float64(c%7)
		guess[c] = 380 + float64(c%5)
	}
	inputs := map[string][]float64{
		"Xs": g.Xs, "Ys": g.Ys, "Zs": g.Zs,
		"KX": p.KX, "KY": p.KY, "KZ": p.KZ, "Q": p.Q, "Cv": p.Cv, "ZPlaneTBR": p.ZPlaneTBR,
		"batch source 0": qs[0], "batch source 1": qs[1],
		"segment 0 sources": segs[0].Q, "segment 2 sources": segs[2].Q,
		"start field": t0, "initial guess": guess,
	}
	want := make(map[string][]float64, len(inputs))
	for name, s := range inputs {
		want[name] = append([]float64(nil), s...)
	}
	check := func(after string) {
		t.Helper()
		for name, s := range inputs {
			if len(s) != len(want[name]) || !bitIdentical(s, want[name]) {
				t.Errorf("%s wrote its input %s", after, name)
			}
		}
	}

	eng := NewEngine(2)
	defer eng.Close()
	for _, opts := range []Options{
		{Tol: 1e-9, Workers: 1},
		{Tol: 1e-9, Engine: eng, FamilyKey: "inputs"},
	} {
		steady := opts
		steady.InitialGuess = guess
		if _, err := SolveSteady(p, steady); err != nil {
			t.Fatal(err)
		}
		check("SolveSteady")
		if _, err := SolveSteadyBatch(p, [][]float64{nil, qs[0], qs[1]}, steady); err != nil {
			t.Fatal(err)
		}
		check("SolveSteadyBatch")

		tr, err := NewTransient(p, t0, opts)
		if err != nil {
			t.Fatal(err)
		}
		check("NewTransient")
		if err := tr.Step(1e-4); err != nil {
			t.Fatal(err)
		}
		check("Transient.Step")
		if err := tr.SetSources(qs[0]); err != nil {
			t.Fatal(err)
		}
		check("Transient.SetSources")
		if _, err := tr.Run(2, 1e-4); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		check("Transient.Run")

		var resume *TraceCheckpoint
		if _, err := SolveTrace(p, t0, segs, opts, TraceOptions{OnCheckpoint: func(cp *TraceCheckpoint) error {
			if cp.Segment == 1 {
				resume = cp
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		check("SolveTrace")
		inputs["checkpoint field"] = resume.T
		want["checkpoint field"] = append([]float64(nil), resume.T...)
		if _, err := SolveTrace(p, t0, segs, opts, TraceOptions{Resume: resume}); err != nil {
			t.Fatal(err)
		}
		check("SolveTrace resumed")
	}

	a, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	check("Assemble")
	if _, err := a.RHS(qs[1], nil); err != nil {
		t.Fatal(err)
	}
	check("Assembled.RHS")
}

// TestSetSourcesRejectsNonFinite: a NaN or infinite source is refused
// before it reaches the right-hand side, so the integrator keeps
// stepping on the sources it had.
func TestSetSourcesRejectsNonFinite(t *testing.T) {
	p := traceProblem(t)
	n := p.Grid.NumCells()
	t0 := make([]float64, n)
	for c := range t0 {
		t0[c] = 373.15
	}
	// step takes one step after offering the sources q, if any.
	step := func(q []float64) []float64 {
		t.Helper()
		tr, err := NewTransient(p, t0, Options{Tol: 1e-9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if q != nil {
			if err := tr.SetSources(q); err == nil {
				t.Fatalf("SetSources accepted a source of %g", q[n/2])
			}
		}
		if err := tr.Step(1e-4); err != nil {
			t.Fatal(err)
		}
		return tr.Field()
	}
	want := step(nil)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := append([]float64(nil), p.Q...)
		q[n/2] = bad
		if got := step(q); !bitIdentical(got, want) {
			t.Errorf("a refused source of %g changed the next step", bad)
		}
	}
}
