package solver

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"thermalscaffold/internal/parallel"
	"thermalscaffold/internal/telemetry"
)

// Family entries: every solve runs on one.
//
// A family entry holds one assembled operator — the 7-point
// couplings, diagonal and boundary RHS — plus the leased
// solve contexts that run against it. All of it is a pure function of
// the problem's geometry, conductivities, heat capacity, and boundary
// conditions — the "family" of the canonical encoding (WriteCanonical
// with includeSources=false) — and none of it depends on the power
// map. Placement sweeps and fleet what-if traffic issue storms of
// solves inside one family that differ only in Q, so an Engine caches
// entries by family key and any solve in a known family skips setup
// entirely.
//
// Cached and private entries: a solve that sets Options.FamilyKey
// runs on the engine's cached entry for that key. A solve without a
// key — or whose key the cache does not take (cache disabled, or a
// singular assembly declined) — runs on a private entry assembled for
// that call alone: never inserted into the cache, and never counted in
// AssemblyStats or the family_assembly_* telemetry counters. Its
// arrays — operator, kern vectors, right-hand side and
// preconditioners — come from the free list (freelist.go), and a
// steady call hands them all back when it releases its lease, a
// transient integrator when it closes, so the next same-sized solve
// reuses them. Either way the solve runs the same code: lease a
// context, derive the RHS (once), run PCG, release.
//
// Key contract: two problems may share a key only if every
// operator-determining field — grid coordinates, KX/KY/KZ, Cv,
// boundary conditions, ZPlaneTBR — is bitwise equal (exactly the
// family bytes of WriteCanonical, which is how internal/serve derives
// its keys; FuzzFamilyAssembly pins that equal family bytes imply
// byte-identical assembled operators). Sources (Problem.Q) are
// deliberately outside the contract: every solve re-derives its
// right-hand side from the entry's boundary terms in sourcesInto's exact
// per-cell arithmetic order.
//
// Determinism: a cached-entry solve is bitwise identical to the same
// solve on a private entry. The cached operator arrays are produced
// by the identical assembleOperator arithmetic, the per-solve RHS by the
// identical sourcesInto arithmetic, and the reused preconditioners
// are pure functions of the (unchanged) operator matrix — the same
// argument that makes SolveSteadyBatch's within-batch reuse exact,
// extended across calls. The equivalence suite pins this at Workers 1
// and 8 for both precision tiers, for steady, batch, and trace solves.
//
// Concurrency: a cached operator is frozen at insert time (diagonal
// checked) and only read afterwards, so any number of solves may run
// against it at once; a private entry has one user and is left to
// makePreconditioner's lazy diagonal check. Mutable
// per-solve state — the RHS vector, the kern's reduction scratch and
// PCG work vectors, and preconditioner instances (whose apply
// closures carry internal scratch) — lives in leased solve contexts:
// a solve takes a spare context or builds a fresh one, and returns it
// when done. A context is never shared while leased, and reusing one
// is bitwise-neutral because preconditioners are pure functions of
// the operator and pcg overwrites its work vectors before reading
// them.

// defaultFamilyCap is the default number of cached families per
// engine. An entry holds the full operator arrays (6 float64 words
// per cell) plus up to maxSpareCtxs preconditioner hierarchies, so
// the cap is deliberately small — family traffic is concentrated on
// few distinct geometries at a time.
const defaultFamilyCap = 8

// maxSpareCtxs bounds the idle steady contexts an entry retains, and
// separately its idle transient contexts across every Δt. Beyond
// this, released contexts are dropped for the collector.
const maxSpareCtxs = 4

// famCtx is one leased steady-solve context: a kern (engine pool,
// reduction scratch, PCG work vectors), a preconditioner cache, and
// an RHS vector. Exclusively owned by one solve while leased.
type famCtx struct {
	kr  *kern
	pcs precondCache
	b   []float64
}

// augCtx is one leased transient-solve context for a fixed Δt: the
// augmented operator (C/Δt + A) with its own diagonal and RHS, the
// per-cell C/Δt both the diagonal and every step's RHS add,
// the scratch a step's extrapolated start is written to, plus the
// paired kern and preconditioner cache. The kern is part of the lease
// because cached preconditioner closures capture the kern they were
// built with (its partials array is scratch), so kern and
// preconditioners must travel together.
type augCtx struct {
	dt    float64
	aug   *operator
	capDt []float64 // cap[c]/dt per cell, W/K
	guess []float64 // predictor scratch; nil until a step extrapolates
	kr    *kern
	pcs   precondCache
}

// familyEntry is one assembly with its spare solve contexts. A cached
// entry's op is frozen once built (diagonal verified positive) and
// shared read-only by every solve in the family; a
// private entry's op serves one caller (see Engine.entry).
type familyEntry struct {
	pool    *parallel.Pool // the engine's pool, which every leased kern runs on
	build   sync.Once
	op      *operator
	ok      bool // false: assembly declined (e.g. singular diagonal) — callers use a private entry
	private bool // assembled for one call, whose release frees it

	lastUse int64 // LRU clock value at last lookup

	mu   sync.Mutex
	ctxs []*famCtx
	augs []*augCtx // spare transient contexts, least recently released first
}

// familyCache is the engine's assembly cache plus its structural
// counters.
type familyCache struct {
	mu       sync.Mutex
	families map[string]*familyEntry
	cap      int
	clock    int64

	assemblies atomic.Int64 // operators assembled for cached entries
	hits       atomic.Int64
	misses     atomic.Int64
}

// SetAssemblyCache resizes the engine's family assembly cache to hold
// at most maxFamilies entries; maxFamilies ≤ 0 disables the cache
// (solves with a FamilyKey run on private entries). Existing entries
// beyond the new cap are evicted least-recently-used first.
func (e *Engine) SetAssemblyCache(maxFamilies int) {
	fc := &e.fam
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.cap = maxFamilies
	fc.evictLocked()
}

// AssemblyStats reports the family cache's structural counters:
// operators assembled for cached entries, and family lookup
// hits/misses. "A second same-family cold solve performs zero
// assemblies" is asserted against built staying flat.
func (e *Engine) AssemblyStats() (built, hits, misses int64) {
	return e.fam.assemblies.Load(), e.fam.hits.Load(), e.fam.misses.Load()
}

// evictLocked drops least-recently-used entries until the cache fits
// its cap. Callers hold fc.mu.
func (fc *familyCache) evictLocked() {
	for fc.cap >= 0 && len(fc.families) > fc.cap {
		var oldKey string
		oldUse := int64(math.MaxInt64)
		for k, fe := range fc.families {
			if fe.lastUse < oldUse {
				oldKey, oldUse = k, fe.lastUse
			}
		}
		delete(fc.families, oldKey)
	}
}

// entry returns the family entry a solve of p runs on: the engine's
// cached entry for opts.FamilyKey when the cache takes it, else a
// private entry built for this call.
func (e *Engine) entry(p *Problem, opts Options) *familyEntry {
	if opts.FamilyKey != "" {
		if fe := e.family(opts.FamilyKey, p, opts.Telemetry); fe != nil {
			return fe
		}
	}
	return &familyEntry{pool: e.pool, op: assembleOperator(p), private: true}
}

// family returns the ready cached entry for (key, p), building it on
// first use. A nil return means the cache is disabled or the assembly
// was declined — the caller runs on a private entry instead (which
// reproduces the exact error a degenerate problem would have raised).
// Concurrent first lookups of one key build once; the rest wait and
// share the result.
func (e *Engine) family(key string, p *Problem, tel *telemetry.Collector) *familyEntry {
	fc := &e.fam
	fc.mu.Lock()
	if fc.cap <= 0 {
		fc.mu.Unlock()
		return nil
	}
	fe, ok := fc.families[key]
	if !ok {
		if fc.families == nil {
			fc.families = make(map[string]*familyEntry)
		}
		fe = &familyEntry{pool: e.pool}
		fc.families[key] = fe
	}
	// Stamp recency before evicting so a fresh insert can never be
	// its own eviction victim.
	fc.clock++
	fe.lastUse = fc.clock
	if !ok {
		fc.evictLocked()
	}
	fc.mu.Unlock()

	if ok {
		fc.hits.Add(1)
		tel.Add(telemetry.CounterFamilyAssemblyHits, 1)
	} else {
		fc.misses.Add(1)
		tel.Add(telemetry.CounterFamilyAssemblyMisses, 1)
	}
	fe.build.Do(func() {
		op := assembleOperator(p)
		fc.assemblies.Add(1)
		// Freeze the operator before publishing: the diagonal
		// positivity flag is lazily written by makePreconditioner,
		// which concurrent sharing cannot afford. A diagonal that is
		// not positive (NaN included) declines the entry — the private
		// entry surfaces the identical singular-system error.
		for _, d := range op.diag {
			if !(d > 0) {
				return
			}
		}
		op.diagChecked = true
		fe.op = op
		fe.ok = true
	})
	if !fe.ok {
		return nil
	}
	return fe
}

// lease returns an exclusive steady-solve context for the family,
// reusing a spare when one is idle. A new context's b comes from the
// free list uncleared: every solve writes it in full (sourcesInto).
func (fe *familyEntry) lease() *famCtx {
	fe.mu.Lock()
	if k := len(fe.ctxs); k > 0 {
		c := fe.ctxs[k-1]
		fe.ctxs = fe.ctxs[:k-1]
		fe.mu.Unlock()
		return c
	}
	fe.mu.Unlock()
	n := len(fe.op.diag)
	return &famCtx{kr: newKern(fe.pool, n), pcs: precondCache{}, b: getUncleared(n)}
}

// release returns a leased context to the spare pool (dropped beyond
// maxSpareCtxs — the kern holds no goroutines of its own, so dropping
// is garbage-collection only). A private entry's one lease ends its
// call, so releasing it hands the context's kern vectors, right-hand
// side and preconditioners and the operator's arrays back to the free
// list instead.
func (fe *familyEntry) release(c *famCtx) {
	if fe.private {
		c.kr.free()
		c.pcs.free()
		putFloats(c.b)
		fe.op.free()
		return
	}
	fe.mu.Lock()
	if len(fe.ctxs) < maxSpareCtxs {
		fe.ctxs = append(fe.ctxs, c)
	}
	fe.mu.Unlock()
}

// cloneForSources returns a shallow clone of the entry's operator
// that shares every assembled array (couplings, diagonal, boundary
// RHS) but owns its b vector — the shape a transient integrator needs,
// since SetSources rewrites b in place per segment. b comes from the
// free list uncleared: the caller writes it in full.
func (fe *familyEntry) cloneForSources() *operator {
	op := *fe.op
	op.b = getUncleared(len(op.diag))
	return &op
}

// leaseAug returns an exclusive transient context for Δt dt, reusing
// the most recently released spare built for the same Δt when one is
// idle. A fresh context stores capDt[c] = cap[c]/dt and builds the
// augmented diagonal as diag[c] + capDt[c], so a reused one is
// bitwise-neutral: every leased value is a pure function of
// (operator, Δt).
func (fe *familyEntry) leaseAug(dt float64, heatCap []float64) *augCtx {
	fe.mu.Lock()
	for i := len(fe.augs) - 1; i >= 0; i-- {
		if c := fe.augs[i]; c.dt == dt {
			fe.augs = slices.Delete(fe.augs, i, i+1)
			fe.mu.Unlock()
			return c
		}
	}
	fe.mu.Unlock()
	op := fe.op
	n := len(op.diag)
	// The augmented system shares the couplings; its diagonal is
	// checked when its first preconditioner is built. Its diagonal,
	// C/Δt and rhs come from the free list uncleared: the first two are
	// written in full below, the rhs by every step before its solve.
	aug := &operator{
		g: op.g, nx: op.nx, ny: op.ny, nz: op.nz,
		gxp: op.gxp, gyp: op.gyp, gzp: op.gzp,
		bare: op.bare, zero: op.zero,
		diag: getUncleared(n),
		b:    getUncleared(n),
	}
	capDt := getUncleared(n)
	for c := 0; c < n; c++ {
		capDt[c] = heatCap[c] / dt
		aug.diag[c] = op.diag[c] + capDt[c]
	}
	return &augCtx{dt: dt, aug: aug, capDt: capDt, kr: newKern(fe.pool, n), pcs: precondCache{}}
}

// releaseAug returns a transient context to the spare pool. The pool
// holds at most maxSpareCtxs contexts across every Δt — a trace of
// many distinct Δt would otherwise pin one augmented system per Δt
// for the entry's lifetime — and drops the least recently released
// one beyond that.
func (fe *familyEntry) releaseAug(c *augCtx) {
	fe.mu.Lock()
	fe.augs = append(fe.augs, c)
	if len(fe.augs) > maxSpareCtxs {
		fe.augs = slices.Delete(fe.augs, 0, 1)
	}
	fe.mu.Unlock()
}

// free hands a transient context's own arrays back to the free list:
// the augmented diagonal and rhs, C/Δt, the predictor scratch, the
// kern vectors and the preconditioners. The couplings belong to the
// entry's operator.
func (c *augCtx) free() {
	c.kr.free()
	c.pcs.free()
	putFloats(c.aug.diag, c.aug.b, c.capDt, c.guess)
}

// freePrivate ends a private entry once its one user is done: the
// parked transient contexts and the operator go back to the free
// list. The user calls it once, after its last solve.
func (fe *familyEntry) freePrivate() {
	for _, c := range fe.augs {
		c.free()
	}
	fe.augs = nil
	fe.op.free()
	fe.op = nil
}
