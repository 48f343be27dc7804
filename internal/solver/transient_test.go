package solver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/telemetry"
)

// TestTransientApproachesSteady: integrating long enough converges to
// the steady solution.
func TestTransientApproachesSteady(t *testing.T) {
	p := uniformProblem(t, 4, 4, 5, 5)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range p.Q {
		p.Q[c] = 1e10
	}
	steady, err := SolveSteady(p, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	init := make([]float64, len(p.Q))
	for c := range init {
		init[c] = 350
	}
	tr, err := NewTransient(p, init, Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(60, 5e-4); err != nil {
		t.Fatal(err)
	}
	for c := range steady.T {
		if math.Abs(tr.Field()[c]-steady.T[c]) > 0.02*(steady.T[c]-350)+1e-6 {
			t.Fatalf("cell %d: transient %g vs steady %g", c, tr.Field()[c], steady.T[c])
		}
	}
	if tr.Time() <= 0 {
		t.Error("time not advancing")
	}
}

// TestTransientLumpedCooling: a single cell cooling through a
// convective boundary matches the discrete backward-Euler exponential
// exactly.
func TestTransientLumpedCooling(t *testing.T) {
	g, _ := mesh.Uniform(1e-4, 1e-4, 1e-4, 1, 1, 1)
	p := NewProblem(g)
	k := 1e4 // effectively isothermal cell
	p.SetIsotropic(0, k)
	p.Cv[0] = 2e6
	h, t0 := 1e4, 300.0
	p.Bounds[ZMin] = ConvectiveBC(h, t0)
	init := []float64{400}
	tr, err := NewTransient(p, init, Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	area := g.DX(0) * g.DY(0)
	gb := area / (g.DZ(0)/(2*k) + 1/h)
	capc := p.Cv[0] * g.Volume(0, 0, 0)
	dt := 1e-4
	want := 400.0
	for n := 0; n < 20; n++ {
		if err := tr.Step(dt); err != nil {
			t.Fatal(err)
		}
		// Backward Euler on C dT/dt = -gb (T - t0):
		want = (want + dt*gb/capc*t0) / (1 + dt*gb/capc)
		if math.Abs(tr.Field()[0]-want) > 1e-8 {
			t.Fatalf("step %d: got %g, want %g", n, tr.Field()[0], want)
		}
	}
	if tr.MaxField() != tr.Field()[0] {
		t.Error("MaxField mismatch on single cell")
	}
}

// TestTransientMonotoneHeating: starting at ambient with constant
// sources, temperature rises monotonically toward steady state.
func TestTransientMonotoneHeating(t *testing.T) {
	p := uniformProblem(t, 3, 3, 3, 2)
	p.Bounds[ZMin] = ConvectiveBC(5e4, 320)
	for c := range p.Q {
		p.Q[c] = 5e9
	}
	init := make([]float64, len(p.Q))
	for c := range init {
		init[c] = 320
	}
	tr, err := NewTransient(p, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := tr.MaxField()
	for n := 0; n < 10; n++ {
		if err := tr.Step(1e-3); err != nil {
			t.Fatal(err)
		}
		cur := tr.MaxField()
		if cur < prev-1e-9 {
			t.Fatalf("step %d: max fell from %g to %g", n, prev, cur)
		}
		prev = cur
	}
}

func TestTransientSetSources(t *testing.T) {
	p := uniformProblem(t, 2, 2, 2, 3)
	p.Bounds[ZMin] = ConvectiveBC(1e5, 300)
	init := make([]float64, 8)
	for c := range init {
		init[c] = 300
	}
	tr, err := NewTransient(p, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 8)
	q[7] = 1e11
	if err := tr.SetSources(q); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(5, 1e-4); err != nil {
		t.Fatal(err)
	}
	if tr.MaxField() <= 300 {
		t.Error("gated source did not heat the stack")
	}
	if err := tr.SetSources([]float64{1}); err == nil {
		t.Error("short source field accepted")
	}
}

func TestTransientRejections(t *testing.T) {
	p := uniformProblem(t, 2, 2, 2, 1)
	p.Bounds[ZMin] = DirichletBC(300)
	good := make([]float64, 8)
	if _, err := NewTransient(p, good[:3], Options{}); err == nil {
		t.Error("short initial field accepted")
	}
	p.Cv[0] = 0
	if _, err := NewTransient(p, good, Options{}); err == nil {
		t.Error("zero heat capacity accepted")
	}
	p.Cv[0] = 1e6
	tr, err := NewTransient(p, good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(0); err == nil {
		t.Error("zero dt accepted")
	}
	if err := tr.Step(-1); err == nil {
		t.Error("negative dt accepted")
	}
	p2 := uniformProblem(t, 2, 2, 2, 1)
	p2.Cv = p2.Cv[:2]
	p2.Bounds[ZMin] = DirichletBC(300)
	if _, err := NewTransient(p2, good, Options{}); err == nil {
		t.Error("short Cv accepted")
	}
}

// TestTransientRejectsNonFiniteCv: NaN and +Inf heat capacity are
// rejected up front, like zero and negative ones — a plain Cv <= 0
// test lets both through, and the first step then breaks down with
// pᵀAp = NaN.
func TestTransientRejectsNonFiniteCv(t *testing.T) {
	good := make([]float64, 8)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		p := uniformProblem(t, 2, 2, 2, 1)
		p.Bounds[ZMin] = DirichletBC(300)
		p.Cv[5] = bad
		tr, err := NewTransient(p, good, Options{Workers: 1})
		if err == nil {
			tr.Close()
			t.Errorf("heat capacity %g accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "cell 5") {
			t.Errorf("heat capacity %g: error %q does not name the cell", bad, err)
		}
	}
}

// TestSingularGuardsDeclineNaNDiagonal: a NaN diagonal entry is not
// positive, so building a preconditioner on it fails as singular and
// the family cache declines the assembly — a plain d <= 0 test let
// both through.
func TestSingularGuardsDeclineNaNDiagonal(t *testing.T) {
	p := uniformProblem(t, 3, 3, 3, 1)
	p.Bounds[ZMin] = DirichletBC(300)
	p.KX[4] = math.NaN() // past Validate: assemble gives cell 4 a NaN diagonal
	op := assemble(p)
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		if _, err := makePreconditioner(op, pc, F64, testKern(t, 1, len(op.diag))); err == nil || !strings.Contains(err.Error(), "singular") {
			t.Errorf("%s on a NaN diagonal: err %v, want a singular-system error", pc, err)
		}
	}
	eng := NewEngine(1)
	defer eng.Close()
	if fe := eng.family("nan", p, nil); fe != nil {
		t.Error("the family cache took an assembly with a NaN diagonal")
	}
}

// sinkCell is one 100 µm cell of conductivity 1e4 W/(m·K) and heat
// capacity 2e6 J/(m³·K), cooled through a convective h = 1e4 W/(m²·K)
// to 300 K, with no sources.
func sinkCell() *Problem {
	g, _ := mesh.Uniform(1e-4, 1e-4, 1e-4, 1, 1, 1)
	p := NewProblem(g)
	p.SetIsotropic(0, 1e4)
	p.Cv[0] = 2e6
	p.Bounds[ZMin] = ConvectiveBC(1e4, 300)
	return p
}

// TestTransientExactStart: a cell resting at the ambient of its
// convective boundary, with no sources, settles in one step to a field
// that solves every later step's system exactly, and those steps
// return it after 0 iterations. PCG used to iterate on the zero
// residual, find pᵀAp = 0 and report a breakdown.
func TestTransientExactStart(t *testing.T) {
	p := sinkCell()
	tel := telemetry.New()
	tr, err := NewTransient(p, []float64{300}, Options{Tol: 1e-13, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var first int64
	for s := 0; s < 4; s++ {
		if err := tr.Step(1e-4); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if d := math.Abs(tr.Field()[0] - 300); d > 1e-12 {
			t.Fatalf("step %d: field moved %g K off equilibrium", s, d)
		}
		if s == 0 {
			first = tel.Counter(telemetry.CounterIterations)
		}
	}
	if later := tel.Counter(telemetry.CounterIterations) - first; later != 0 {
		t.Errorf("steps 2–4 took %d iterations, want 0", later)
	}
}

// stepIterations integrates steps steps of dt from t0 and returns the
// PCG iterations they took. With reset, SetSources re-applies the
// problem's own sources before every step: that changes nothing but
// the predictor's history, so every step starts from Tⁿ.
func stepIterations(t *testing.T, p *Problem, t0 []float64, pc Preconditioner, dt float64, steps int, reset bool) int64 {
	t.Helper()
	tel := telemetry.New()
	tr, err := NewTransient(p, t0, Options{Tol: 1e-7, Precond: pc, Workers: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for s := 0; s < steps; s++ {
		if reset {
			if err := tr.SetSources(p.Q); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Step(dt); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	return tel.Counter(telemetry.CounterIterations)
}

// TestTransientPredictorNeverCostsIterations: starting each step from
// the extrapolated field never takes more PCG iterations than starting
// from Tⁿ, for both production preconditioners across four decades of
// Δt on two stacks (the 12-tier chip stack and an isotropic block).
func TestTransientPredictorNeverCostsIterations(t *testing.T) {
	block := uniformProblem(t, 8, 8, 6, 4)
	block.Bounds[ZMin] = ConvectiveBC(1e5, 350)
	for c := range block.Q {
		block.Q[c] = 1e10 * float64(1+c%5)
	}
	const steps = 8
	for _, st := range []struct {
		name string
		p    *Problem
		t0   float64
	}{{"chip", benchStack(t, 6), 373.15}, {"block", block, 350}} {
		t0 := make([]float64, st.p.Grid.NumCells())
		for c := range t0 {
			t0[c] = st.t0
		}
		for _, pc := range []Preconditioner{ZLine, Multigrid} {
			for _, dt := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
				name := fmt.Sprintf("%s/%s/dt=%g", st.name, pc, dt)
				with := stepIterations(t, st.p, t0, pc, dt, steps, false)
				without := stepIterations(t, st.p, t0, pc, dt, steps, true)
				t.Logf("%s: %d iterations with the predictor, %d from Tⁿ", name, with, without)
				if with > without {
					t.Errorf("%s: predictor took %d iterations, more than the %d from Tⁿ", name, with, without)
				}
			}
		}
	}
}

// TestTransientPredictorAllocs: once the predictor is running, a step
// allocates one n-vector — the field it returns. The extrapolated
// start lives in the leased Δt context's scratch, and the history
// only rotates fields the integrator already returned. A private
// integrator's whole life — NewTransient, one step, Close — allocates
// under one n-vector once warm: Close hands the private entry's
// operator and every Δt context it built back to the free list.
func TestTransientPredictorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := benchStack(t, 16)
	n := p.Grid.NumCells()
	vec := float64(8 * n)
	t0 := make([]float64, n)
	for c := range t0 {
		t0[c] = 373.15
	}
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		tr, err := NewTransient(p, t0, Options{Tol: 1e-7, Precond: pc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := tr.Step(1e-4); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		objs, bytes := allocBudget(step)
		t.Logf("%s: %.0f objects, %.0f bytes per step (n-vector %.0f bytes)", pc, objs, bytes, vec)
		if tr.lease.guess == nil {
			t.Errorf("%s: the predictor never extrapolated", pc)
		}
		if bytes >= 1.5*vec {
			t.Errorf("%s: a step allocates %.0f bytes, budget one %.0f-byte field", pc, bytes, vec)
		}
		tr.Close()

		_, bytes = allocBudget(func() {
			tr, err := NewTransient(p, t0, Options{Tol: 1e-7, Precond: pc, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Step(1e-4); err != nil {
				t.Fatal(err)
			}
			tr.Close()
		})
		t.Logf("%s: %.0f bytes per private NewTransient/Step/Close (%.1f n-vectors)", pc, bytes, bytes/vec)
		if bytes >= vec {
			t.Errorf("%s: a private transient cycle allocates %.1f n-vectors, budget 1", pc, bytes/vec)
		}
	}
}
