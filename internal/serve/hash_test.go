package serve

// Property tests for the content address: requests describing the
// same physical problem hash equal (permutation invariance, explicit
// vs. defaulted fields), any solution-relevant change hashes
// different, and the family key ignores exactly the power map. FuzzEvalKey holds these invariants on arbitrary request JSON
// (corpus under testdata/fuzz, run in `make fuzz-short`).

import (
	"bytes"
	"strings"
	"testing"

	"thermalscaffold/internal/specio"
)

func keyOf(t *testing.T, req specio.EvalRequest) (key, family string) {
	t.Helper()
	ev, err := specio.BuildEval(req)
	if err != nil {
		t.Fatalf("BuildEval: %v", err)
	}
	key, err = Key(ev)
	if err != nil {
		t.Fatal(err)
	}
	family, err = FamilyKey(ev)
	if err != nil {
		t.Fatal(err)
	}
	return key, family
}

func hashBase() specio.EvalRequest {
	req := specio.EvalRequest{Stack: testStack(2, 8, 20)}
	req.PowerBlocks = []specio.PowerBlock{
		{X0: 0, Y0: 0, X1: 4, Y1: 4, DensityWPerCm2: 10},
		{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: 5},
		{X0: 5, Y0: 1, X1: 8, Y1: 3, DensityWPerCm2: 25},
	}
	return req
}

// TestKeyPermutationInvariance: reordering power blocks, or writing
// the defaults out explicitly, does not change the content address.
func TestKeyPermutationInvariance(t *testing.T) {
	base, baseFam := keyOf(t, hashBase())

	reordered := hashBase()
	reordered.PowerBlocks = []specio.PowerBlock{
		reordered.PowerBlocks[2], reordered.PowerBlocks[0], reordered.PowerBlocks[1],
	}
	if k, _ := keyOf(t, reordered); k != base {
		t.Fatal("reordered power blocks changed the key")
	}

	// A block split into two disjoint halves paints the same map.
	split := hashBase()
	split.PowerBlocks = append(split.PowerBlocks[:2:2],
		specio.PowerBlock{X0: 5, Y0: 1, X1: 8, Y1: 2, DensityWPerCm2: 25},
		specio.PowerBlock{X0: 5, Y0: 2, X1: 8, Y1: 3, DensityWPerCm2: 25},
	)
	if k, _ := keyOf(t, split); k != base {
		t.Fatal("splitting a block into equivalent halves changed the key")
	}

	explicit := hashBase()
	explicit.Solver = specio.SolverJSON{Precond: "zline", Tol: 1e-7, MaxIter: 100000}
	if k, _ := keyOf(t, explicit); k != base {
		t.Fatal("writing the solver defaults explicitly changed the key")
	}

	// The f64 precision tier is the default; naming it (either way)
	// names the same solve, so it must keep the default's address.
	for _, name := range []string{"f64", "float64"} {
		prec := hashBase()
		prec.Solver.Precision = name
		if k, _ := keyOf(t, prec); k != base {
			t.Fatalf("explicit precision %q changed the key", name)
		}
	}

	// Timeout and scheduling knobs are not part of the solution.
	timed := hashBase()
	timed.Solver.TimeoutMS = 1234
	k, fam := keyOf(t, timed)
	if k != base || fam != baseFam {
		t.Fatal("timeout_ms leaked into the content address")
	}
}

// TestKeySensitivity: every solution-relevant field change must
// produce a new content address.
func TestKeySensitivity(t *testing.T) {
	base, _ := keyOf(t, hashBase())
	mutations := map[string]func(*specio.EvalRequest){
		"tol":            func(r *specio.EvalRequest) { r.Solver.Tol = 1e-9 },
		"max_iter":       func(r *specio.EvalRequest) { r.Solver.MaxIter = 77 },
		"precond":        func(r *specio.EvalRequest) { r.Solver.Precond = "multigrid" },
		"precond_jacobi": func(r *specio.EvalRequest) { r.Solver.Precond = "jacobi" },
		"precision":      func(r *specio.EvalRequest) { r.Solver.Precision = "f32" },
		"die_w":          func(r *specio.EvalRequest) { r.Stack.DieWUm = 250 },
		"die_h":          func(r *specio.EvalRequest) { r.Stack.DieHUm = 250 },
		"tiers":          func(r *specio.EvalRequest) { r.Stack.Tiers = 3 },
		"grid":           func(r *specio.EvalRequest) { r.Stack.NX, r.Stack.NY = 10, 10 },
		"uniform_power":  func(r *specio.EvalRequest) { r.Stack.UniformPower = 21 },
		"block_density":  func(r *specio.EvalRequest) { r.PowerBlocks[0].DensityWPerCm2 = 11 },
		"block_position": func(r *specio.EvalRequest) { r.PowerBlocks[0].X0 = 1 },
		"beol":           func(r *specio.EvalRequest) { r.Stack.BEOL = "conventional" },
		"pillar_cover":   func(r *specio.EvalRequest) { r.Stack.PillarCover = 0.3 },
		"sink":           func(r *specio.EvalRequest) { r.Stack.Sink = "coldplate" },
		"memory_tiers":   func(r *specio.EvalRequest) { r.Stack.MemoryPerTier = true },
		"transient":      func(r *specio.EvalRequest) { r.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 5} },
		"fidelity":       func(r *specio.EvalRequest) { r.Fidelity = specio.FidelityRC },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		req := hashBase()
		mutate(&req)
		k, _ := keyOf(t, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
			continue
		}
		seen[k] = name
	}
	// Transient parameters are part of the address too.
	tr1 := hashBase()
	tr1.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 5}
	k1, _ := keyOf(t, tr1)
	tr2 := hashBase()
	tr2.Transient = &specio.TransientJSON{DtS: 2e-4, Steps: 5}
	if k2, _ := keyOf(t, tr2); k2 == k1 {
		t.Error("transient dt_s not in the content address")
	}
	tr3 := hashBase()
	tr3.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 6}
	if k3, _ := keyOf(t, tr3); k3 == k1 {
		t.Error("transient steps not in the content address")
	}
}

// TestFamilyKey: the family address ignores exactly the power map —
// power changes keep the family (one shared operator), anything else
// moves to a new family.
func TestFamilyKey(t *testing.T) {
	key, fam := keyOf(t, hashBase())

	hotter := hashBase()
	hotter.PowerBlocks[1].DensityWPerCm2 = 50
	hk, hfam := keyOf(t, hotter)
	if hk == key {
		t.Fatal("power change did not change the key")
	}
	if hfam != fam {
		t.Fatal("power change moved the request out of its family")
	}

	uniform := hashBase()
	uniform.PowerBlocks = nil
	uniform.Stack.UniformPower = 55
	if _, ufam := keyOf(t, uniform); ufam != fam {
		t.Fatal("uniform-power variant left the family")
	}

	finer := hashBase()
	finer.Solver.Tol = 1e-9
	if _, ffam := keyOf(t, finer); ffam == fam {
		t.Fatal("tolerance change kept the family key (fields would be incompatible targets)")
	}
	jacobi := hashBase()
	jacobi.Solver.Precond = "jacobi"
	if _, jfam := keyOf(t, jacobi); jfam == fam {
		t.Fatal("jacobi kept the default zline's family key")
	}
	bigger := hashBase()
	bigger.Stack.Tiers = 3
	if _, bfam := keyOf(t, bigger); bfam == fam {
		t.Fatal("geometry change kept the family key")
	}
}

// TestFamPrefixMemoMatches: the family-prefix memo is invisible in
// the key space and in the problem — hits and misses both produce
// exactly the two-pass addresses, and a cloned evaluation encodes
// bitwise identically to a freshly built one, across power-only
// variants (memo hits), geometry/option variants (new memo entries),
// and repeated lookups.
func TestFamPrefixMemoMatches(t *testing.T) {
	memo := newFamPrefixMemo(famPrefixMemoCap)
	reqs := []specio.EvalRequest{hashBase(), hashBase(), specio.ExampleEval()}
	hotter := hashBase()
	hotter.PowerBlocks[0].DensityWPerCm2 = 42 // same family, new sources
	uniform := hashBase()
	uniform.PowerBlocks = nil
	uniform.Stack.UniformPower = 33
	bigger := hashBase()
	bigger.Stack.Tiers = 3
	f32 := hashBase()
	f32.Solver.Precision = "f32"
	tr := hashBase()
	tr.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 5}
	rc := hashBase()
	rc.Solver.Precond = "multigrid"
	rc.Fidelity = specio.FidelityRC
	reqs = append(reqs, hotter, uniform, bigger, f32, tr, rc)
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			norm, err := req.Normalize()
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			wantKey, wantFam := keyOf(t, req)
			ev, key, fam, _, err := memo.resolve(norm)
			if err != nil {
				t.Fatalf("round %d request %d: %v", round, i, err)
			}
			if key != wantKey || fam != wantFam {
				t.Fatalf("round %d request %d: memo = %s/%s, two-pass = %s/%s",
					round, i, key, fam, wantKey, wantFam)
			}
			built, err := specio.BuildEval(norm)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			var got, want bytes.Buffer
			if err := ev.Problem.WriteCanonical(&got, true); err != nil {
				t.Fatal(err)
			}
			if err := built.Problem.WriteCanonical(&want, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d request %d: resolved problem bytes differ from a fresh build", round, i)
			}
			if ev.Timeout != built.Timeout || ev.Precision != built.Precision {
				t.Fatalf("round %d request %d: resolved eval fields differ from a fresh build", round, i)
			}
		}
	}
}

// TestKeyShape: addresses are 64 lowercase hex chars and key ≠ family.
func TestKeyShape(t *testing.T) {
	key, fam := keyOf(t, hashBase())
	for _, k := range []string{key, fam} {
		if len(k) != 64 || strings.ToLower(k) != k || strings.Trim(k, "0123456789abcdef") != "" {
			t.Fatalf("address %q is not 64-char lowercase hex", k)
		}
	}
	if key == fam {
		t.Fatal("key and family address coincide")
	}
}

// fuzzMemo is shared across FuzzEvalKey inputs so the memo sees an
// adversarial mix of families, like a long-lived server.
var fuzzMemo = newFamPrefixMemo(famPrefixMemoCap)

// FuzzEvalKey: for any request that builds, hashing is deterministic,
// normalization is key-preserving (idempotent), and the family
// address is too.
func FuzzEvalKey(f *testing.F) {
	seed := func(req specio.EvalRequest) {
		raw, err := specio.MarshalEval(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(hashBase())
	seed(specio.ExampleEval())
	small := specio.EvalRequest{Stack: testStack(2, 4, 5)}
	small.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 2}
	seed(small)
	f.Add([]byte(`{"stack":{"tiers":1,"nx":3,"ny":3,"die_w_um":50,"die_h_um":50,"uniform_power_w_per_cm2":1}}`))
	f.Add([]byte(`{"stack":{}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := specio.ParseEval(raw)
		if err != nil {
			t.Skip()
		}
		// Bound the work: the fuzzer will otherwise discover that huge
		// grids allocate huge meshes.
		if req.Stack.Tiers > 8 || req.Stack.NX > 32 || req.Stack.NY > 32 ||
			len(req.Stack.PowerMap) > 1024 || len(req.PowerBlocks) > 16 ||
			(req.Transient != nil && req.Transient.Steps > 64) {
			t.Skip()
		}
		ev, err := specio.BuildEval(req)
		if err != nil {
			t.Skip()
		}
		k1, err := Key(ev)
		if err != nil {
			t.Fatalf("Key: %v", err)
		}
		f1, err := FamilyKey(ev)
		if err != nil {
			t.Fatalf("FamilyKey: %v", err)
		}
		k2, _ := Key(ev)
		if k1 != k2 {
			t.Fatalf("Key not deterministic: %s vs %s", k1, k2)
		}
		var noMemo *famPrefixMemo
		_, dk, df, _, err := noMemo.resolve(ev.Req)
		if err != nil || dk != k1 || df != f1 {
			t.Fatalf("memo-less single pass = %s/%s (%v), want %s/%s", dk, df, err, k1, f1)
		}
		// The family-prefix memo accumulates state across fuzz inputs in
		// this process; a stale or colliding entry (wrong digest state or
		// wrong cloned geometry) would surface here.
		mev, mk, mf, _, err := fuzzMemo.resolve(ev.Req)
		if err != nil || mk != k1 || mf != f1 {
			t.Fatalf("memoized single pass = %s/%s (%v), want %s/%s", mk, mf, err, k1, f1)
		}
		var cloned, fresh bytes.Buffer
		if err := mev.Problem.WriteCanonical(&cloned, true); err != nil {
			t.Fatal(err)
		}
		if err := ev.Problem.WriteCanonical(&fresh, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cloned.Bytes(), fresh.Bytes()) {
			t.Fatal("memo-resolved problem bytes differ from a fresh build")
		}
		if len(k1) != 64 || len(f1) != 64 {
			t.Fatalf("bad address lengths %d/%d", len(k1), len(f1))
		}
		// Re-building the already-normalized request must address the
		// same problem.
		ev2, err := specio.BuildEval(ev.Req)
		if err != nil {
			t.Fatalf("normalized request no longer builds: %v", err)
		}
		k3, _ := Key(ev2)
		f3, _ := FamilyKey(ev2)
		if k3 != k1 || f3 != f1 {
			t.Fatalf("normalization not key-preserving: %s/%s vs %s/%s", k1, f1, k3, f3)
		}
	})
}
