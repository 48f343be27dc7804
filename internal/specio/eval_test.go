package specio

// Tests for the eval request schema: normalization semantics
// (defaults, block rasterization, idempotence), validation rejects,
// and the strict decoder.

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func evalBase() EvalRequest {
	return EvalRequest{
		Stack: StackJSON{
			DieWUm: 200, DieHUm: 200,
			Tiers: 2, NX: 4, NY: 4,
			UniformPower: 10,
			BEOL:         "scaffolded", PillarCover: 0.1, Sink: "twophase",
		},
	}
}

func TestNormalizeDefaults(t *testing.T) {
	norm, err := evalBase().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s := norm.Solver
	if s.Precond != "multigrid" || s.Tol != 1e-7 || s.MaxIter != 100000 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	// No blocks → the power map stays implicit.
	if norm.Stack.PowerMap != nil || norm.Stack.UniformPower != 10 {
		t.Fatalf("block-free request should keep uniform power: %+v", norm.Stack)
	}

	zl := evalBase()
	zl.Solver.Precond = "zline"
	norm, err = zl.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Solver.Precond != "zline" {
		t.Fatalf("explicit zline normalized to %q", norm.Solver.Precond)
	}
	jac := evalBase()
	jac.Solver.Precond = "jacobi"
	if _, err := jac.Normalize(); err == nil {
		t.Fatal(`"jacobi" accepted; Jacobi is no longer a scheme`)
	}

	// Precision canonicalizes: the default tier collapses to the empty
	// string (an omitted precision and "f64" name the same solve), the
	// f32 tier to its short name.
	for in, want := range map[string]string{
		"": "", "f64": "", "float64": "", "f32": "f32", "float32": "f32",
	} {
		r := evalBase()
		r.Solver.Precision = in
		norm, err := r.Normalize()
		if err != nil {
			t.Fatalf("precision %q: %v", in, err)
		}
		if norm.Solver.Precision != want {
			t.Errorf("precision %q normalized to %q, want %q", in, norm.Solver.Precision, want)
		}
	}
}

func TestNormalizeRasterizesBlocks(t *testing.T) {
	req := evalBase()
	req.PowerBlocks = []PowerBlock{
		{X0: 0, Y0: 0, X1: 2, Y1: 1, DensityWPerCm2: 5},
		{X0: 1, Y0: 0, X1: 2, Y1: 2, DensityWPerCm2: 2},
	}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.PowerBlocks != nil || norm.Stack.UniformPower != 0 {
		t.Fatalf("blocks/uniform power not folded into the map: %+v", norm)
	}
	want := []float64{
		15, 17, 10, 10,
		10, 12, 10, 10,
		10, 10, 10, 10,
		10, 10, 10, 10,
	}
	if !reflect.DeepEqual(norm.Stack.PowerMap, want) {
		t.Fatalf("power map = %v, want %v", norm.Stack.PowerMap, want)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	req := evalBase()
	req.PowerBlocks = []PowerBlock{{X0: 1, Y0: 1, X1: 3, Y1: 3, DensityWPerCm2: 7}}
	req.Transient = &TransientJSON{DtS: 1e-4, Steps: 5}
	once, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once.Stack, twice.Stack) || !reflect.DeepEqual(once.Solver, twice.Solver) ||
		!reflect.DeepEqual(once.Transient, twice.Transient) || twice.PowerBlocks != nil {
		t.Fatalf("Normalize not idempotent:\nonce  %+v\ntwice %+v", once, twice)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := map[string]func(*EvalRequest){
		"negative tol":      func(r *EvalRequest) { r.Solver.Tol = -1 },
		"nan tol":           func(r *EvalRequest) { r.Solver.Tol = math.NaN() },
		"inf tol":           func(r *EvalRequest) { r.Solver.Tol = math.Inf(1) },
		"negative max_iter": func(r *EvalRequest) { r.Solver.MaxIter = -3 },
		"negative timeout":  func(r *EvalRequest) { r.Solver.TimeoutMS = -1 },
		"bad precond":       func(r *EvalRequest) { r.Solver.Precond = "cholesky" },
		"bad precision":     func(r *EvalRequest) { r.Solver.Precision = "f16" },
		"zero dt":           func(r *EvalRequest) { r.Transient = &TransientJSON{DtS: 0, Steps: 1} },
		"negative dt":       func(r *EvalRequest) { r.Transient = &TransientJSON{DtS: -1e-5, Steps: 1} },
		"zero steps":        func(r *EvalRequest) { r.Transient = &TransientJSON{DtS: 1e-5, Steps: 0} },
		"too many steps":    func(r *EvalRequest) { r.Transient = &TransientJSON{DtS: 1e-5, Steps: EvalMaxSteps + 1} },
		"block outside grid": func(r *EvalRequest) {
			r.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 5, Y1: 1, DensityWPerCm2: 1}}
		},
		"inverted block": func(r *EvalRequest) {
			r.PowerBlocks = []PowerBlock{{X0: 3, Y0: 0, X1: 1, Y1: 1, DensityWPerCm2: 1}}
		},
		"negative block density": func(r *EvalRequest) {
			r.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 1, Y1: 1, DensityWPerCm2: -4}}
		},
		"nan block density": func(r *EvalRequest) {
			r.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 1, Y1: 1, DensityWPerCm2: math.NaN()}}
		},
		"wrong power map size": func(r *EvalRequest) {
			r.Stack.PowerMap = []float64{1, 2, 3}
			r.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 1, Y1: 1, DensityWPerCm2: 1}}
		},
		"blocks without grid": func(r *EvalRequest) {
			r.Stack.NX = 0
			r.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 1, Y1: 1, DensityWPerCm2: 1}}
		},
	}
	for name, mutate := range cases {
		req := evalBase()
		mutate(&req)
		if _, err := req.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted it", name)
		}
	}
}

func TestParseEvalStrict(t *testing.T) {
	if _, err := ParseEval([]byte(`{"stack":{"tiers":2},"not_a_field":1}`)); err == nil || !strings.Contains(err.Error(), "not_a_field") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	if _, err := ParseEval([]byte(`{"stack":`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestExampleEvalBuilds(t *testing.T) {
	raw, err := MarshalEval(ExampleEval())
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseEval(raw)
	if err != nil {
		t.Fatalf("example does not round-trip: %v", err)
	}
	ev, err := BuildEval(req)
	if err != nil {
		t.Fatalf("example does not build: %v", err)
	}
	if !ev.Steady() || ev.Mode() != "steady" || ev.Timeout <= 0 {
		t.Fatalf("example eval misconfigured: steady=%v timeout=%v", ev.Steady(), ev.Timeout)
	}
	if n := ev.Problem.Grid.NumCells(); len(ev.InitialField()) != n {
		t.Fatalf("initial field has %d cells, grid %d", len(ev.InitialField()), n)
	}
}

// TestCloneForPower: a clone is bitwise indistinguishable from a
// fresh build — same canonical problem bytes (full and family), same
// derived fields — while sharing every array except the sources, and
// it preserves the power validation of the full build path.
func TestCloneForPower(t *testing.T) {
	base := evalBase()
	base.Solver.TimeoutMS = 2000
	ev, err := BuildEval(base)
	if err != nil {
		t.Fatal(err)
	}

	hotter := evalBase()
	hotter.Stack.UniformPower = 0
	hotter.PowerBlocks = []PowerBlock{
		{X0: 0, Y0: 0, X1: 3, Y1: 3, DensityWPerCm2: 40},
		{X0: 1, Y0: 2, X1: 4, Y1: 4, DensityWPerCm2: 15},
	}
	hotter.Solver.TimeoutMS = 750
	clone, err := ev.CloneForPower(hotter)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildEval(hotter)
	if err != nil {
		t.Fatal(err)
	}
	for _, includeSources := range []bool{true, false} {
		var got, want bytes.Buffer
		if err := clone.Problem.WriteCanonical(&got, includeSources); err != nil {
			t.Fatal(err)
		}
		if err := built.Problem.WriteCanonical(&want, includeSources); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("clone canonical bytes (sources=%v) differ from fresh build", includeSources)
		}
	}
	if !reflect.DeepEqual(clone.Req, built.Req) {
		t.Fatal("clone normalized request differs from fresh build")
	}
	if clone.Timeout != built.Timeout || clone.Precision != built.Precision ||
		clone.Precond != built.Precond || clone.Tol != built.Tol || clone.MaxIter != built.MaxIter {
		t.Fatal("clone derived fields differ from fresh build")
	}
	// Geometry arrays are shared, sources are not, and the parent's
	// sources are untouched.
	if &clone.Problem.KX[0] != &ev.Problem.KX[0] {
		t.Fatal("clone does not share the parent's conductivity arrays")
	}
	if &clone.Problem.Q[0] == &ev.Problem.Q[0] {
		t.Fatal("clone shares the parent's source array")
	}
	if ev.Problem.Q[0] != built0(t, base) {
		t.Fatal("cloning mutated the parent's sources")
	}

	// Validation still runs: a negative power block is rejected by the
	// clone path exactly like the build path.
	bad := hotter
	bad.PowerBlocks = []PowerBlock{{X0: 0, Y0: 0, X1: 2, Y1: 2, DensityWPerCm2: -5}}
	if _, err := ev.CloneForPower(bad); err == nil {
		t.Fatal("negative power block accepted by CloneForPower")
	}
	badMap := hotter
	badMap.PowerBlocks = nil
	badMap.Stack.PowerMap = []float64{1, 2, 3} // wrong length for 4×4 grid
	if _, err := ev.CloneForPower(badMap); err == nil {
		t.Fatal("short power map accepted by CloneForPower")
	}
}

// built0 returns Q[0] of a freshly built evaluation of r.
func built0(t *testing.T, r EvalRequest) float64 {
	t.Helper()
	ev, err := BuildEval(r)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Problem.Q[0]
}
