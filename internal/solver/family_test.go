package solver

// Equivalence, structural, and property coverage for the engine's
// family-keyed assembly cache (family.go). The hard contract: a solve
// carrying Options.FamilyKey is bitwise identical to the same solve
// without one — at Workers 1 and 8, both precision tiers, for steady,
// batch, and trace entry points — while a warm family performs zero
// operator assemblies (asserted structurally via AssemblyStats, never
// by timing). Runs under `make equivalence` (-race -count=2).

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"thermalscaffold/internal/mesh"
	"thermalscaffold/internal/parallel"
)

// famOpts is the baseline solve configuration the family tests vary.
func famOpts(eng *Engine, key string, prec Precision) Options {
	return Options{
		Tol: 1e-10, MaxIter: 100000, Precond: Multigrid,
		Precision: prec, Engine: eng, FamilyKey: key,
	}
}

// TestFamilyEngineEquivalenceSteady: repeated same-family solves with
// distinct power maps are bitwise identical to plain solves, at
// Workers 1 and 8 and both precision tiers, and only the first one
// assembles.
func TestFamilyEngineEquivalenceSteady(t *testing.T) {
	rng := &eqRNG{s: 0xFA311}
	p := randomProblem(t, rng, 14, 12, 10)
	qs := batchSources(p, 4)
	for _, w := range []int{1, 8} {
		for _, prec := range []Precision{F64, F32} {
			eng := NewEngine(w)
			for i, q := range qs {
				pq := withQ(p, q)
				plain, err := SolveSteady(pq, Options{Tol: 1e-10, MaxIter: 100000, Precond: Multigrid, Precision: prec, Workers: w})
				if err != nil {
					t.Fatalf("workers %d prec %v item %d plain: %v", w, prec, i, err)
				}
				fam, err := SolveSteady(pq, famOpts(eng, "famA", prec))
				if err != nil {
					t.Fatalf("workers %d prec %v item %d family: %v", w, prec, i, err)
				}
				if !bitIdentical(plain.T, fam.T) {
					t.Errorf("workers %d prec %v item %d: family-cached solve differs bitwise from plain solve (rel %g)",
						w, prec, i, relDiff(plain.T, fam.T))
				}
				if plain.Iterations != fam.Iterations {
					t.Errorf("workers %d prec %v item %d: family solve took %d iterations, plain %d",
						w, prec, i, fam.Iterations, plain.Iterations)
				}
			}
			built, hits, misses := eng.AssemblyStats()
			if built != 1 {
				t.Errorf("workers %d prec %v: %d assemblies across %d same-family solves, want exactly 1", w, prec, built, len(qs))
			}
			if misses != 1 || hits != int64(len(qs)-1) {
				t.Errorf("workers %d prec %v: hits=%d misses=%d, want %d/1", w, prec, hits, misses, len(qs)-1)
			}
			eng.Close()
		}
	}
}

// TestFamilyEngineBatchEquivalence: SolveSteadyBatch against a cached
// family assembly matches the plain batch item for item, and a second
// batch in the family assembles nothing.
func TestFamilyEngineBatchEquivalence(t *testing.T) {
	rng := &eqRNG{s: 0xFAB47}
	p := randomProblem(t, rng, 12, 12, 9)
	qs := batchSources(p, 3)
	for _, w := range []int{1, 8} {
		eng := NewEngine(w)
		plainOpts := Options{Tol: 1e-10, MaxIter: 100000, Precond: Multigrid, Workers: w}
		plain, err := SolveSteadyBatch(p, qs, plainOpts)
		if err != nil {
			t.Fatalf("workers %d plain batch: %v", w, err)
		}
		for round := 0; round < 2; round++ {
			fam, err := SolveSteadyBatch(p, qs, famOpts(eng, "famB", F64))
			if err != nil {
				t.Fatalf("workers %d family batch round %d: %v", w, round, err)
			}
			for i := range qs {
				if !bitIdentical(plain[i].T, fam[i].T) {
					t.Errorf("workers %d round %d item %d: family batch differs bitwise from plain batch", w, round, i)
				}
			}
		}
		if built, _, _ := eng.AssemblyStats(); built != 1 {
			t.Errorf("workers %d: %d assemblies across 2 family batches, want 1", w, built)
		}
		eng.Close()
	}
}

// TestFamilyEngineTraceEquivalence: a trace through the family cache
// — multi-segment, alternating Δt, so the per-Δt augmented-system
// leases genuinely swap — is bitwise identical to the plain trace,
// and a second trace in the family assembles nothing.
func TestFamilyEngineTraceEquivalence(t *testing.T) {
	rng := &eqRNG{s: 0xFA7CE}
	p := randomProblem(t, rng, 10, 9, 8)
	qs := batchSources(p, 2)
	t0 := make([]float64, p.Grid.NumCells())
	for c := range t0 {
		t0[c] = 300
	}
	segs := []TraceSegment{
		{Dt: 1e-4, Steps: 3, Q: qs[0]},
		{Dt: 5e-5, Steps: 2, Q: qs[1]},
		{Dt: 1e-4, Steps: 2}, // back to the first Δt: re-leases its context
	}
	for _, w := range []int{1, 8} {
		for _, prec := range []Precision{F64, F32} {
			eng := NewEngine(w)
			plain, err := SolveTrace(p, t0, segs, Options{Tol: 1e-10, MaxIter: 100000, Precond: Multigrid, Precision: prec, Workers: w}, TraceOptions{})
			if err != nil {
				t.Fatalf("workers %d prec %v plain trace: %v", w, prec, err)
			}
			for round := 0; round < 2; round++ {
				fam, err := SolveTrace(p, t0, segs, famOpts(eng, "famT", prec), TraceOptions{})
				if err != nil {
					t.Fatalf("workers %d prec %v family trace round %d: %v", w, prec, round, err)
				}
				if !bitIdentical(plain.T, fam.T) {
					t.Errorf("workers %d prec %v round %d: family trace differs bitwise from plain trace (rel %g)",
						w, prec, round, relDiff(plain.T, fam.T))
				}
				if fam.Steps != plain.Steps || fam.PeakT != plain.PeakT {
					t.Errorf("workers %d prec %v round %d: trace summary differs: steps %d/%d peak %g/%g",
						w, prec, round, fam.Steps, plain.Steps, fam.PeakT, plain.PeakT)
				}
			}
			if built, _, _ := eng.AssemblyStats(); built != 1 {
				t.Errorf("workers %d prec %v: %d assemblies across 2 family traces, want 1", w, prec, built)
			}
			eng.Close()
		}
	}
}

// TestTraceResumeFamilyEngine: the checkpoint/resume bitwise contract
// survives the family cache — a trace interrupted mid-schedule and
// resumed through the same (and a fresh) engine reproduces the
// uninterrupted family run exactly.
func TestTraceResumeFamilyEngine(t *testing.T) {
	rng := &eqRNG{s: 0xFAE5D}
	p := randomProblem(t, rng, 9, 8, 7)
	qs := batchSources(p, 2)
	t0 := make([]float64, p.Grid.NumCells())
	for c := range t0 {
		t0[c] = 305
	}
	segs := []TraceSegment{
		{Dt: 2e-4, Steps: 2, Q: qs[0]},
		{Dt: 1e-4, Steps: 2, Q: qs[1]},
		{Dt: 2e-4, Steps: 2},
	}
	eng := NewEngine(4)
	defer eng.Close()
	opts := famOpts(eng, "famR", F64)
	var cps []*TraceCheckpoint
	ref, err := SolveTrace(p, t0, segs, opts, TraceOptions{
		OnCheckpoint: func(cp *TraceCheckpoint) error { cps = append(cps, cp); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != len(segs) {
		t.Fatalf("got %d checkpoints, want %d", len(cps), len(segs))
	}
	fresh := NewEngine(4)
	defer fresh.Close()
	for i, cp := range cps[:len(cps)-1] {
		for name, e := range map[string]*Engine{"warm": eng, "fresh": fresh} {
			o := opts
			o.Engine = e
			res, err := SolveTrace(p, nil, segs, o, TraceOptions{Resume: cp})
			if err != nil {
				t.Fatalf("resume from checkpoint %d (%s engine): %v", i, name, err)
			}
			if !bitIdentical(ref.T, res.T) {
				t.Errorf("resume from checkpoint %d (%s engine): field differs bitwise from uninterrupted run", i, name)
			}
		}
	}
}

// TestFamilyEngineConcurrent: many goroutines solving one family at
// once — steady solves, and traces whose Δt outnumber the spare
// transient contexts — share the frozen assembly and the spare pools
// without racing, and every result is bitwise identical to its plain
// solve. (-race makes this a real detector, not just a smoke test.)
func TestFamilyEngineConcurrent(t *testing.T) {
	rng := &eqRNG{s: 0xFACC}
	p := randomProblem(t, rng, 12, 10, 8)
	const clients = 12
	qs := batchSources(p, clients)
	eng := NewEngine(4)
	defer eng.Close()
	plainOpts := Options{Tol: 1e-10, MaxIter: 100000, Precond: Multigrid, Workers: 4}
	t0 := make([]float64, p.Grid.NumCells())
	for c := range t0 {
		t0[c] = 300
	}
	dts := []float64{1e-5, 2e-5, 3e-5, 5e-5, 8e-5, 1.3e-4} // more Δt than spare contexts
	segs := func(i int) []TraceSegment {
		return []TraceSegment{{Dt: dts[i%len(dts)], Steps: 1, Q: qs[i]}, {Dt: dts[(i+1)%len(dts)], Steps: 1}}
	}
	want := make([][]float64, clients)
	wantTrace := make([][]float64, clients)
	for i, q := range qs {
		res, err := SolveSteady(withQ(p, q), plainOpts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.T
		tr, err := SolveTrace(p, t0, segs(i), plainOpts, TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantTrace[i] = tr.T
	}
	var wg sync.WaitGroup
	errs := make([]error, 2*clients)
	for i := 0; i < clients; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			res, err := SolveSteady(withQ(p, qs[i]), famOpts(eng, "famC", F64))
			if err != nil {
				errs[i] = err
				return
			}
			if !bitIdentical(res.T, want[i]) {
				errs[i] = fmt.Errorf("client %d: concurrent family solve differs bitwise from plain solve", i)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			res, err := SolveTrace(p, t0, segs(i), famOpts(eng, "famC", F64), TraceOptions{})
			if err != nil {
				errs[clients+i] = err
				return
			}
			if !bitIdentical(res.T, wantTrace[i]) {
				errs[clients+i] = fmt.Errorf("client %d: concurrent family trace differs bitwise from plain trace", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestFamilyEngineDisabledAndEviction: a disabled cache runs keyed
// solves on private entries (identical results, zero cached
// assemblies), unkeyed solves never touch the cache, and an
// over-capacity cache evicts least-recently-used families but stays
// correct — an evicted family simply re-assembles. An unkeyed solve
// with and without an engine, a keyed solve on a disabled cache, and
// a warm keyed solve are all bitwise equal.
func TestFamilyEngineDisabledAndEviction(t *testing.T) {
	rng := &eqRNG{s: 0xFAD1}
	pA := randomProblem(t, rng, 8, 8, 6)
	pB := randomProblem(t, rng, 7, 9, 5)
	opts := func(eng *Engine, key string) Options {
		o := famOpts(eng, key, F64)
		o.Precond = ZLine
		return o
	}

	eng := NewEngine(2)
	defer eng.Close()
	eng.SetAssemblyCache(0)
	plain, err := SolveSteady(pA, Options{Tol: 1e-10, MaxIter: 100000, Precond: ZLine, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveSteady(pA, opts(eng, "famA"))
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(plain.T, res.T) {
		t.Error("disabled cache: family solve differs bitwise from plain solve")
	}
	if built, hits, misses := eng.AssemblyStats(); built != 0 || hits != 0 || misses != 0 {
		t.Errorf("disabled cache recorded activity: built=%d hits=%d misses=%d", built, hits, misses)
	}

	// Unkeyed solves on an engine whose cache is on run on private
	// entries: same bits as the engine-less solve, nothing counted.
	unkeyedEng := NewEngine(2)
	defer unkeyedEng.Close()
	res, err = SolveSteady(pA, opts(unkeyedEng, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(plain.T, res.T) {
		t.Error("unkeyed engine solve differs bitwise from engine-less solve")
	}
	if _, err := SolveSteadyBatch(pA, [][]float64{nil}, opts(unkeyedEng, "")); err != nil {
		t.Fatal(err)
	}
	if built, hits, misses := unkeyedEng.AssemblyStats(); built != 0 || hits != 0 || misses != 0 {
		t.Errorf("unkeyed solves recorded cache activity: built=%d hits=%d misses=%d", built, hits, misses)
	}

	eng.SetAssemblyCache(1)
	for round := 0; round < 2; round++ {
		for _, pk := range []struct {
			p   *Problem
			key string
		}{{pA, "famA"}, {pB, "famB"}} {
			if _, err := SolveSteady(pk.p, opts(eng, pk.key)); err != nil {
				t.Fatalf("round %d key %s: %v", round, pk.key, err)
			}
		}
	}
	// Capacity 1 with alternating families: every lookup evicts the
	// other family, so all four solves assemble.
	if built, _, _ := eng.AssemblyStats(); built != 4 {
		t.Errorf("capacity-1 cache: built=%d assemblies across 4 alternating solves, want 4", built)
	}
	res, err = SolveSteady(pA, opts(eng, "famA"))
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(plain.T, res.T) {
		t.Error("post-eviction family solve differs bitwise from plain solve")
	}
	_, hits, _ := eng.AssemblyStats()
	res, err = SolveSteady(pA, opts(eng, "famA"))
	if err != nil {
		t.Fatal(err)
	}
	if _, h, _ := eng.AssemblyStats(); h != hits+1 {
		t.Errorf("repeat famA solve: %d cache hits, want 1", h-hits)
	}
	if !bitIdentical(plain.T, res.T) {
		t.Error("warm family solve differs bitwise from plain solve")
	}
}

// TestFamilyAugSpareBound: an entry keeps at most maxSpareCtxs spare
// transient contexts across every Δt — a trace of many distinct Δt
// leaves that many behind, not one per Δt — and a repeated single-Δt
// trace still reuses its context: no new pool, the same augmented
// stencil.
func TestFamilyAugSpareBound(t *testing.T) {
	rng := &eqRNG{s: 0xA065}
	p := randomProblem(t, rng, 8, 7, 6)
	t0 := make([]float64, p.Grid.NumCells())
	for c := range t0 {
		t0[c] = 300
	}
	eng := NewEngine(2)
	defer eng.Close()
	opts := famOpts(eng, "famS", F64)
	opts.Precond = ZLine

	many := make([]TraceSegment, 4*maxSpareCtxs)
	for i := range many {
		many[i] = TraceSegment{Dt: 1e-5 * float64(i+1), Steps: 1}
	}
	if _, err := SolveTrace(p, t0, many, opts, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	fe := eng.family(opts.FamilyKey, p, nil)
	fe.mu.Lock()
	spares := len(fe.augs)
	fe.mu.Unlock()
	if spares > maxSpareCtxs {
		t.Errorf("a %d-Δt trace left %d spare transient contexts, want at most %d", len(many), spares, maxSpareCtxs)
	}

	const dt = 3e-4
	one := []TraceSegment{{Dt: dt, Steps: 2}, {Dt: dt, Steps: 2}}
	// lastDiag returns the augmented diagonal of the most recently
	// released spare, which must be the single-Δt trace's context.
	lastDiag := func() *float64 {
		t.Helper()
		fe.mu.Lock()
		defer fe.mu.Unlock()
		c := fe.augs[len(fe.augs)-1]
		if c.dt != dt {
			t.Fatalf("most recent spare is for Δt %g, want %g", c.dt, dt)
		}
		return &c.aug.diag[0]
	}
	if _, err := SolveTrace(p, t0, one, opts, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	diag0 := lastDiag()
	pools := parallel.PoolsCreated()
	if _, err := SolveTrace(p, t0, one, opts, TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := parallel.PoolsCreated() - pools; d != 0 {
		t.Errorf("repeated single-Δt trace built %d worker pools, want 0", d)
	}
	if lastDiag() != diag0 {
		t.Error("repeated single-Δt trace rebuilt its augmented system instead of reusing the spare context")
	}
}

// familyBytes returns the sources-free canonical encoding — the
// byte stream whose equality defines an operator family.
func familyBytes(t testing.TB, p *Problem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteCanonical(&buf, false); err != nil {
		t.Fatalf("WriteCanonical: %v", err)
	}
	return buf.Bytes()
}

// operatorBits flattens every source-independent assembled array —
// exactly what the family cache shares between solves — into one
// comparable byte-level vector.
func operatorBits(op *operator) []uint64 {
	var bits []uint64
	for _, arr := range [][]float64{op.gxp, op.gyp, op.gzp, op.diag, op.bBound} {
		for _, v := range arr {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// FuzzFamilyAssembly is the family-key soundness property: any two
// problems with equal sources-free canonical bytes assemble
// byte-identical operators (couplings, diagonal, boundary RHS). This
// is the invariant that makes serving a family-cached assembly to a
// request that merely hashes to the same family key safe. Mutations
// that do change the family bytes must be tolerated too (the cache
// simply treats them as a different family) — the property is an
// implication, not an equivalence.
func FuzzFamilyAssembly(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(3), uint16(0), 1.0, 120.0, 2e8, 1e-9, uint8(0))
	f.Add(uint8(5), uint8(3), uint8(4), uint16(7), 0.5, 50.0, 1e9, 0.0, uint8(1))
	f.Add(uint8(3), uint8(6), uint8(2), uint16(12), 2.0, 4.0, 5e8, 1e-8, uint8(2))
	f.Add(uint8(6), uint8(2), uint8(5), uint16(3), 1.5, 400.0, 0.0, 2e-9, uint8(3))
	f.Add(uint8(4), uint8(5), uint8(6), uint16(21), 3.0, 30.0, 7e8, 0.0, uint8(4))
	f.Add(uint8(2), uint8(2), uint8(2), uint16(1), 1.0, 1.0, 1e6, 0.0, uint8(5))

	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, cell uint16, scale, k2, q2, tbr float64, mut uint8) {
		gx := int(nx)%6 + 2
		gy := int(ny)%6 + 2
		gz := int(nz)%6 + 2
		g, err := mesh.Uniform(1e-3, 1e-3, 1e-4, gx, gy, gz)
		if err != nil {
			t.Fatalf("mesh.Uniform: %v", err)
		}
		base := NewProblem(g)
		for c := range base.KX {
			base.KX[c] = 1 + float64(c%7)
			base.KY[c] = 2 + float64(c%5)
			base.KZ[c] = 0.5 + float64(c%3)
			base.Q[c] = 1e8 * float64(c%4)
			base.Cv[c] = 1e6
		}
		base.Bounds[ZMin] = ConvectiveBC(1e4, 300)
		base.Bounds[XMax] = DirichletBC(320)

		other := *base
		other.KX = append([]float64(nil), base.KX...)
		other.KY = append([]float64(nil), base.KY...)
		other.KZ = append([]float64(nil), base.KZ...)
		other.Q = append([]float64(nil), base.Q...)
		other.Cv = append([]float64(nil), base.Cv...)
		c := int(cell) % g.NumCells()
		// Sanitize fuzzed values into the valid range so Validate
		// passes and the property is actually exercised.
		if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
			scale = 1
		}
		if !(k2 > 0) || math.IsInf(k2, 0) || math.IsNaN(k2) {
			k2 = 1
		}
		if math.IsNaN(q2) || math.IsInf(q2, 0) {
			q2 = 0
		}
		if !(tbr >= 0) || math.IsInf(tbr, 0) || math.IsNaN(tbr) {
			tbr = 0
		}
		switch mut % 6 {
		case 0:
			// Power-only mutation: family bytes unchanged by design.
			other.Q[c] = q2
		case 1:
			other.KX[c] = k2
		case 2:
			other.KZ[c] = math.Min(k2*scale, 1e6)
		case 3:
			other.Bounds[ZMin] = ConvectiveBC(1e4*scale, 300)
		case 4:
			other.Cv[c] = 1e6 * scale
		case 5:
			if gz > 1 {
				v := make([]float64, gz-1)
				v[0] = tbr
				other.ZPlaneTBR = v
			}
		}
		if base.Validate() != nil || other.Validate() != nil {
			return
		}
		sameFamily := bytes.Equal(familyBytes(t, base), familyBytes(t, &other))
		if mut%6 == 0 && !sameFamily {
			t.Fatal("power-only mutation changed the family bytes")
		}
		if !sameFamily {
			return
		}
		opA, opB := assemble(base), assemble(&other)
		ba, bb := operatorBits(opA), operatorBits(opB)
		if len(ba) != len(bb) {
			t.Fatalf("operator shapes differ: %d vs %d words", len(ba), len(bb))
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("equal family bytes but assembled operators differ at word %d", i)
			}
		}
	})
}

// BenchmarkSteadyFamily measures the assembly-skipping economics: the
// same stream of unique-power solves through a plain engine (cached=
// off assembles every time) and through the family cache (cached=on
// assembles once). The "assemblies/op" metric is the structural
// record for BENCH_solver.json — near-zero means warm-family solves
// skipped assembly, independent of machine timing noise.
func BenchmarkSteadyFamily(b *testing.B) {
	rng := &eqRNG{s: 0xBEFA}
	p := benchProblemFamily(rng, 32, 32, 16)
	qs := batchSources(p, 8)
	for _, cached := range []string{"off", "on"} {
		b.Run("cached="+cached, func(b *testing.B) {
			eng := NewEngine(0)
			defer eng.Close()
			opts := Options{Tol: 1e-8, MaxIter: 100000, Precond: Multigrid, Engine: eng}
			if cached == "on" {
				opts.FamilyKey = "bench-family"
			}
			// Prime the one-time cold build outside the timed region:
			// the metric records warm-family economics, so cached=on
			// must report exactly 0 assemblies/op at any -benchtime.
			if _, err := SolveSteady(withQ(p, qs[0]), opts); err != nil {
				b.Fatal(err)
			}
			baseBuilt, _, _ := eng.AssemblyStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveSteady(withQ(p, qs[i%len(qs)]), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			built, _, _ := eng.AssemblyStats()
			built -= baseBuilt
			if cached == "off" {
				// The plain path assembles per solve by construction.
				built = int64(b.N)
			}
			b.ReportMetric(float64(built)/float64(b.N), "assemblies/op")
		})
	}
}

// benchProblemFamily builds a deterministic benchmark problem without
// *testing.T plumbing (randomProblem wants a T).
func benchProblemFamily(rng *eqRNG, nx, ny, nz int) *Problem {
	g, err := mesh.Uniform(2e-3, 2e-3, 5e-4, nx, ny, nz)
	if err != nil {
		panic(err)
	}
	p := NewProblem(g)
	for c := range p.KX {
		p.KX[c] = 10 + 100*rng.float()
		p.KY[c] = 10 + 100*rng.float()
		p.KZ[c] = 1 + 10*rng.float()
		p.Q[c] = rng.float() * 1e9
		p.Cv[c] = 1.6e6
	}
	p.Bounds[ZMin] = ConvectiveBC(2e4, 300)
	return p
}

// allocBudget measures fn after one warm-up call: heap objects per
// call (testing.AllocsPerRun) and heap bytes per call.
func allocBudget(fn func()) (objects, bytes float64) {
	fn()
	const runs = 20
	objects = testing.AllocsPerRun(runs, fn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestEngineFamilySolveAllocs pins the PCG scratch contract. Budget:
// once warm, a same-family steady solve at Workers 1 and a fixed-Δt
// Transient.Step allocate one n-length vector — the field they return
// — plus at most famSolveObjects small objects (the result records
// and the residual history's growth); the work vectors, the
// best-iterate snapshot and the ZLine factors all come from the
// leased kern and preconditioner cache. Aliasing: a failed solve's
// ConvergenceError.Best is the caller's own copy, so a later solve on
// the same lease leaves it untouched.
func TestEngineFamilySolveAllocs(t *testing.T) {
	p := benchStack(t, 16)
	n := p.Grid.NumCells()
	vec := float64(8 * n)
	eng := NewEngine(1)
	defer eng.Close()
	opts := Options{Tol: 1e-7, Precond: ZLine, Engine: eng, FamilyKey: "allocs"}

	t.Run("budget", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race instrumentation allocates")
		}
		const famSolveObjects = 12
		check := func(what string, fn func()) {
			objs, bytes := allocBudget(fn)
			t.Logf("%s: %.0f objects, %.0f bytes (n-vector %.0f bytes)", what, objs, bytes, vec)
			if objs > famSolveObjects || bytes >= 1.5*vec {
				t.Errorf("%s allocates %.0f objects / %.0f bytes, budget %d objects and one %.0f-byte field",
					what, objs, bytes, famSolveObjects, vec)
			}
		}
		check("family steady solve", func() {
			if _, err := SolveSteady(p, opts); err != nil {
				t.Fatal(err)
			}
		})

		t0 := make([]float64, n)
		for c := range t0 {
			t0[c] = 373.15
		}
		tr, err := NewTransient(p, t0, Options{Tol: 1e-7, Precond: ZLine, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		check("transient step", func() {
			if err := tr.Step(1e-4); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("best iterate", func(t *testing.T) {
		// Find a budget at which the solve fails on its snapshot rather
		// than on its last iterate (BestResidual below Residual). The
		// z-line residual is far from monotone on the ill-conditioned
		// problem, so one turns up within a few dozen iterations.
		q := illConditionedProblem(t)
		qOpts := opts
		qOpts.FamilyKey = "best"
		var first *ConvergenceError
		for it := 1; it <= 100 && first == nil; it++ {
			o := qOpts
			o.Tol, o.MaxIter = 1e-14, it
			_, err := SolveSteady(q, o)
			ce, ok := AsConvergenceError(err)
			if !ok {
				t.Fatalf("MaxIter=%d: err %v, want a ConvergenceError", it, err)
			}
			if ce.BestResidual < ce.Residual {
				first = ce
			}
		}
		if first == nil {
			t.Fatal("no budget in 1..100 returned the best-iterate snapshot")
		}
		kept := append([]float64(nil), first.Best...)
		fe := eng.family(qOpts.FamilyKey, q, nil)
		fe.mu.Lock()
		for _, c := range fe.ctxs {
			if &c.kr.best[0] == &first.Best[0] {
				t.Error("ConvergenceError.Best aliases the lease's snapshot scratch")
			}
		}
		fe.mu.Unlock()
		hotter := withQ(q, batchSources(q, 1)[0])
		if _, err := SolveSteady(hotter, qOpts); err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(first.Best, kept) {
			t.Error("a later solve on the same lease changed an earlier error's Best")
		}
	})
}
