package solver

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"thermalscaffold/internal/telemetry"
)

// Family-keyed assembly cache.
//
// The most expensive part of a cold solve that is not the PCG
// iteration itself is setup: assembling the 7-point operator,
// building the SoA stencil, and constructing the preconditioner (for
// Multigrid, a whole hierarchy of coarse operators). All of it is a
// pure function of the problem's geometry, conductivities, heat
// capacity, and boundary conditions — the "family" of the canonical
// encoding (WriteCanonical with includeSources=false) — and none of
// it depends on the power map. Placement sweeps and fleet what-if
// traffic issue storms of solves inside one family that differ only
// in Q, so an Engine caches assemblies by family key and any solve in
// a known family skips setup entirely.
//
// Activation: set Options.FamilyKey (any opaque string) together with
// Options.Engine. The caller owns the key contract: two problems may
// share a key only if every operator-determining field — grid
// coordinates, KX/KY/KZ, Cv, boundary conditions, ZPlaneTBR — is
// bitwise equal (exactly the family bytes of WriteCanonical, which is
// how internal/serve derives its keys; FuzzFamilyAssembly pins that
// equal family bytes imply byte-identical assembled operators).
// Sources (Problem.Q) are deliberately outside the contract: every
// solve re-derives its right-hand side from the cached boundary terms
// in assemble's exact per-cell arithmetic order.
//
// Determinism: a family-cached solve is bitwise identical to the same
// solve without a key. The cached operator arrays are produced by the
// identical assemble arithmetic, the per-solve RHS by the identical
// setSources arithmetic, and the reused preconditioners are pure
// functions of the (unchanged) operator matrix — the same argument
// that makes SolveSteadyBatch's within-batch reuse exact, extended
// across calls. The equivalence suite pins this at Workers 1 and 8
// for both precision tiers, for steady, batch, and trace solves.
//
// Concurrency: the cached operator is frozen at insert time (stencil
// built, diagonal checked) and only read afterwards, so any number of
// solves may run against it at once. Mutable per-solve state — the
// RHS vector, the kern's reduction scratch and PCG work vectors, and
// preconditioner instances (whose apply closures carry internal
// scratch) — lives in leased solve contexts: a solve takes a spare
// context or builds a fresh one, and returns it when done. A context
// is never shared while leased, and reusing one is bitwise-neutral
// because preconditioners are pure functions of the operator and pcg
// overwrites its work vectors before reading them.

// defaultFamilyCap is the default number of cached families per
// engine. An entry holds the full operator arrays (~10 float64 words
// per cell) plus up to maxSpareCtxs preconditioner hierarchies, so
// the cap is deliberately small — family traffic is concentrated on
// few distinct geometries at a time.
const defaultFamilyCap = 8

// maxSpareCtxs bounds the idle solve contexts retained per family
// (and per Δt for transient aug contexts). Beyond this, released
// contexts are dropped for the collector.
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
// augmented operator (C/Δt + A) with its own diagonal, stencil and
// RHS, plus the paired kern and preconditioner cache. The kern is
// part of the lease because cached preconditioner closures capture
// the kern they were built with (its partials array is scratch), so
// kern and preconditioners must travel together.
type augCtx struct {
	aug *operator
	kr  *kern
	pcs precondCache
}

// familyEntry is one cached assembly. op is frozen once built
// (stencil present, diagonal verified positive) and shared read-only
// by every solve in the family.
type familyEntry struct {
	build sync.Once
	op    *operator
	ok    bool // false: assembly declined (e.g. singular diagonal) — callers fall back

	lastUse int64 // LRU clock value at last lookup

	mu   sync.Mutex
	ctxs []*famCtx
	augs map[uint64][]*augCtx // spare transient contexts keyed by Float64bits(Δt)
}

// familyCache is the engine's assembly cache plus its structural
// counters.
type familyCache struct {
	mu       sync.Mutex
	families map[string]*familyEntry
	cap      int
	clock    int64

	assemblies atomic.Int64 // operators assembled through the family path
	hits       atomic.Int64
	misses     atomic.Int64
}

// SetAssemblyCache resizes the engine's family assembly cache to hold
// at most maxFamilies entries; maxFamilies ≤ 0 disables the cache
// (solves with a FamilyKey fall back to plain assembly). Existing
// entries beyond the new cap are evicted least-recently-used first.
func (e *Engine) SetAssemblyCache(maxFamilies int) {
	fc := &e.fam
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.cap = maxFamilies
	fc.evictLocked()
}

// AssemblyStats reports the family cache's structural counters:
// operators assembled through the family path, and family lookup
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

// family returns the ready assembly for (key, p), building and
// caching it on first use. A nil return means the cache is disabled
// or the assembly was declined — the caller must fall back to the
// plain uncached path (which reproduces the exact error a degenerate
// problem would have raised). Concurrent first lookups of one key
// build once; the rest wait and share the result.
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
		fe = &familyEntry{}
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
		op := assemble(p)
		fc.assemblies.Add(1)
		// Freeze the operator before publishing: the stencil and the
		// diagonal positivity flag are lazily written on the plain
		// path, which concurrent sharing cannot afford. A non-positive
		// diagonal declines the entry — the fallback path surfaces the
		// identical singular-system error.
		for _, d := range op.diag {
			if d <= 0 {
				return
			}
		}
		op.diagChecked = true
		op.ensureStencil()
		fe.op = op
		fe.ok = true
	})
	if !fe.ok {
		return nil
	}
	return fe
}

// lease returns an exclusive steady-solve context for the family,
// reusing a spare when one is idle. opts must carry the engine (the
// kern shares its pool) and resolved defaults.
func (fe *familyEntry) lease(opts Options) *famCtx {
	fe.mu.Lock()
	if k := len(fe.ctxs); k > 0 {
		c := fe.ctxs[k-1]
		fe.ctxs = fe.ctxs[:k-1]
		fe.mu.Unlock()
		return c
	}
	fe.mu.Unlock()
	n := len(fe.op.diag)
	return &famCtx{kr: newKern(opts, n), pcs: precondCache{}, b: make([]float64, n)}
}

// release returns a leased context to the spare pool (dropped beyond
// maxSpareCtxs — the kern holds no goroutines of its own, so dropping
// is garbage-collection only).
func (fe *familyEntry) release(c *famCtx) {
	fe.mu.Lock()
	if len(fe.ctxs) < maxSpareCtxs {
		fe.ctxs = append(fe.ctxs, c)
	}
	fe.mu.Unlock()
}

// cloneForSources returns a shallow clone of the cached operator that
// shares every frozen array (couplings, diagonal, stencil, boundary
// RHS) but owns its b vector — the shape a transient integrator
// needs, since SetSources rewrites b in place per segment.
func (fe *familyEntry) cloneForSources() *operator {
	op := fe.op
	return &operator{
		g: op.g, nx: op.nx, ny: op.ny, nz: op.nz,
		sy: op.sy, sz: op.sz,
		gxp: op.gxp, gyp: op.gyp, gzp: op.gzp,
		diag: op.diag, bBound: op.bBound, st: op.st,
		diagChecked: true,
		b:           make([]float64, len(op.diag)),
	}
}

// leaseAug returns an exclusive transient context for Δt dt, reusing
// a spare built for the same Δt when one is idle. The augmented
// diagonal diag[c] + cap[c]/dt is the identical expression the
// un-cached Transient builds, so a reused context is bitwise-neutral.
func (fe *familyEntry) leaseAug(dt float64, heatCap []float64, opts Options) *augCtx {
	bits := math.Float64bits(dt)
	fe.mu.Lock()
	if spares := fe.augs[bits]; len(spares) > 0 {
		c := spares[len(spares)-1]
		fe.augs[bits] = spares[:len(spares)-1]
		fe.mu.Unlock()
		return c
	}
	fe.mu.Unlock()
	op := fe.op
	n := len(op.diag)
	aug := &operator{
		g: op.g, nx: op.nx, ny: op.ny, nz: op.nz,
		sy: op.sy, sz: op.sz,
		gxp: op.gxp, gyp: op.gyp, gzp: op.gzp,
		diag: make([]float64, n),
		b:    make([]float64, n),
	}
	for c := 0; c < n; c++ {
		aug.diag[c] = op.diag[c] + heatCap[c]/dt
	}
	return &augCtx{aug: aug, kr: newKern(opts, n), pcs: precondCache{}}
}

// releaseAug returns a transient context to the per-Δt spare pool.
func (fe *familyEntry) releaseAug(dt float64, c *augCtx) {
	bits := math.Float64bits(dt)
	fe.mu.Lock()
	if fe.augs == nil {
		fe.augs = make(map[uint64][]*augCtx)
	}
	if len(fe.augs[bits]) < maxSpareCtxs {
		fe.augs[bits] = append(fe.augs[bits], c)
	}
	fe.mu.Unlock()
}

// familySolveSteady runs one steady solve against the cached family
// assembly. handled=false means the caller must fall back to the
// plain path (cache disabled or assembly declined). opts must have
// defaults resolved and carry this engine.
func (e *Engine) familySolveSteady(p *Problem, opts Options) (res *Result, handled bool, err error) {
	fe := e.family(opts.FamilyKey, p, opts.Telemetry)
	if fe == nil {
		return nil, false, nil
	}
	ctx := fe.lease(opts)
	defer fe.release(ctx)
	fe.op.sourcesInto(p.Q, ctx.b)
	out, fallbacks, err := solveOperatorWith(fe.op, ctx.b, opts, "pcg", ctx.kr, ctx.pcs)
	if err != nil {
		return nil, true, err
	}
	return &Result{
		T: out.x, Iterations: out.iterations, Residual: out.residual,
		Residuals: out.history, Fallbacks: fallbacks, grid: p.Grid,
	}, true, nil
}

// familySolveBatch runs SolveSteadyBatch's K-solve loop against the
// cached family assembly: zero assemblies on a warm family, one
// shared preconditioner cache, per-item results bitwise identical to
// independent solves. handled=false falls back to the plain path.
func (e *Engine) familySolveBatch(p *Problem, qs [][]float64, opts Options) (results []*Result, handled bool, err error) {
	fe := e.family(opts.FamilyKey, p, opts.Telemetry)
	if fe == nil {
		return nil, false, nil
	}
	ctx := fe.lease(opts)
	defer fe.release(ctx)
	results = make([]*Result, len(qs))
	for i, q := range qs {
		if q == nil {
			q = p.Q
		}
		fe.op.sourcesInto(q, ctx.b)
		out, fallbacks, err := solveOperatorWith(fe.op, ctx.b, opts, "pcg", ctx.kr, ctx.pcs)
		if err != nil {
			return nil, true, fmt.Errorf("solver: batch item %d: %w", i, err)
		}
		results[i] = &Result{
			T: out.x, Iterations: out.iterations, Residual: out.residual,
			Residuals: out.history, Fallbacks: fallbacks, grid: p.Grid,
		}
	}
	return results, true, nil
}
