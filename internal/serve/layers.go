package serve

// The serving pipeline is three explicit layers, composed by Server:
//
//	cache     — cacheLayer: every LRU index the service keeps, sized
//	            in exactly one place from Config.
//	admission — gate: the Parallel+QueueDepth backpressure bound; one
//	            slot per unit of work (solve, group solve, or stream).
//	solve     — solverLayer: cache misses in, immutable *solved
//	            entries out; owns the solver engine, the per-request
//	            deadline, and the storing of finished results.
//
// The layers keep the determinism contract trivially auditable: only
// the solve layer produces numbers, every solve starts cold, the
// cache layer stores results verbatim, and admission decides *when* a
// solve runs, never what it returns.

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"thermalscaffold/internal/rom"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// ---------------------------------------------------------------- cache

// cacheLayer is every index the service keeps. All sizing happens in
// newCacheLayer — the one place Config reaches the LRUs, so a
// CacheSize change cannot apply to the result cache but miss the key
// memo (the two must agree: a memoized key whose result was evicted
// still answers correctly, but a result the memo cannot address is
// dead weight).
type cacheLayer struct {
	results *lru // content address → *solved
	keys    *lru // normalized request JSON → keyPair
	roms    *lru // family address → *rom.Model
}

func newCacheLayer(cfg Config) *cacheLayer {
	return &cacheLayer{
		results: newLRU(cfg.CacheSize),
		keys:    newLRU(cfg.CacheSize),
		roms:    newLRU(romCacheCap),
	}
}

// Lookup returns the cached entry for a content address.
func (c *cacheLayer) Lookup(key string) (*solved, bool) {
	return c.results.getSolved(key)
}

// Store indexes a finished solve under its content address.
func (c *cacheLayer) Store(sv *solved) {
	c.results.Add(sv.key, sv)
}

// ------------------------------------------------------------ admission

// gate bounds concurrent work with a channel semaphore: at most
// Parallel units running plus QueueDepth waiting; everything past
// that is shed immediately with errBusy. One unit is one solve, one
// group solve, or one whole trace stream.
type gate struct {
	parallel, queue  int
	sem              chan struct{}
	pending, running atomic.Int64
}

func newGate(parallel, queue int) *gate {
	return &gate{parallel: parallel, queue: queue, sem: make(chan struct{}, parallel)}
}

// Admit reserves a slot, blocking in the bounded queue until one
// frees or cancel is closed (then errDraining). The returned release
// function must be called exactly once.
func (g *gate) Admit(cancel <-chan struct{}) (func(), error) {
	if g.pending.Add(1) > int64(g.parallel+g.queue) {
		g.pending.Add(-1)
		return nil, errBusy
	}
	select {
	case g.sem <- struct{}{}:
	case <-cancel:
		g.pending.Add(-1)
		return nil, errDraining
	}
	g.running.Add(1)
	return func() {
		g.running.Add(-1)
		<-g.sem
		g.pending.Add(-1)
	}, nil
}

// Pending counts admitted units (queued + running); Running counts
// units holding a run slot.
func (g *gate) Pending() int64 { return g.pending.Load() }
func (g *gate) Running() int64 { return g.running.Load() }

// ----------------------------------------------------------------- solve

// miss is one cache miss bound for the solver: the built evaluation
// and its content and family addresses.
type miss struct {
	ev     *specio.Eval
	key    string
	famKey string
}

// solverLayer is the compute layer: misses in, immutable solved
// entries out. It owns result storage, so every caller observes
// identical caching behavior.
type solverLayer struct {
	cfg     Config
	engine  *solver.Engine
	caches  *cacheLayer
	baseCtx context.Context
	ctr     *counters
}

func newSolverLayer(cfg Config, caches *cacheLayer, baseCtx context.Context, ctr *counters) *solverLayer {
	engine := solver.NewEngine(cfg.SolverWorkers)
	switch {
	case cfg.AssemblyCache > 0:
		engine.SetAssemblyCache(cfg.AssemblyCache)
	case cfg.AssemblyCache < 0:
		engine.SetAssemblyCache(0)
	}
	return &solverLayer{
		cfg:     cfg,
		engine:  engine,
		caches:  caches,
		baseCtx: baseCtx,
		ctr:     ctr,
	}
}

// Close releases the solver engine after the last solve has finished.
func (l *solverLayer) Close() { l.engine.Close() }

// AssemblyStats reports the engine's family assembly-cache structural
// counters (operators built, lookup hits/misses) for /metrics.
func (l *solverLayer) AssemblyStats() (built, hits, misses int64) {
	return l.engine.AssemblyStats()
}

// deadline clamps the request's timeout to the configured bounds and
// derives the solve context from the server's base context.
func (l *solverLayer) deadline(reqTimeout time.Duration) (context.Context, context.CancelFunc) {
	timeout := reqTimeout
	if timeout <= 0 {
		timeout = l.cfg.DefaultTimeout
	}
	if timeout > l.cfg.MaxTimeout {
		timeout = l.cfg.MaxTimeout
	}
	return context.WithTimeout(l.baseCtx, timeout)
}

// options builds the solver options shared by every solve path.
func (l *solverLayer) options(ev *specio.Eval, ctx context.Context) solver.Options {
	return solver.Options{
		Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond,
		Precision: ev.Precision,
		Engine:    l.engine, Ctx: ctx, Telemetry: l.cfg.Telemetry,
	}
}

// newSolved builds the immutable cache entry for a solved field of m.
func newSolved(m miss, field []float64, iters int, resid float64) *solved {
	peak, mean := m.ev.FieldStats(field)
	return &solved{
		key: m.key,
		resp: specio.EvalResponse{
			Key:        m.key,
			Mode:       m.ev.Mode(),
			PeakT:      telemetry.Float(peak),
			MeanT:      telemetry.Float(mean),
			Tiers:      m.ev.TierProfile(field),
			Iterations: iters,
			Residual:   telemetry.Float(resid),
		},
	}
}

// Solve runs one evaluation under its deadline and stores the result.
func (l *solverLayer) Solve(m miss) (*solved, error) {
	ev := m.ev
	if ev.RC() {
		return l.solveRC(m)
	}
	ctx, cancel := l.deadline(ev.Timeout)
	defer cancel()
	opts := l.options(ev, ctx)
	// The family address hashes exactly the sources-free canonical
	// bytes (plus solver options — a finer partition, never a coarser
	// one), so it satisfies solver.Options.FamilyKey's contract: same
	// key ⇒ bitwise-equal assembly. Solves in a family the engine has
	// seen skip operator assembly and preconditioner setup.
	opts.FamilyKey = m.famKey
	var sv *solved
	if ev.Steady() {
		res, err := solver.SolveSteady(ev.Problem, opts)
		if err != nil {
			return nil, err
		}
		sv = newSolved(m, res.T, res.Iterations, res.Residual)
	} else {
		tr, err := solver.NewTransient(ev.Problem, ev.InitialField(), opts)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		field, err := tr.Run(ev.Req.Transient.Steps, ev.Req.Transient.DtS)
		if err != nil {
			return nil, err
		}
		sv = newSolved(m, field, ev.Req.Transient.Steps, math.NaN())
	}
	l.caches.Store(sv)
	return sv, nil
}

// SolveBatch runs K same-family steady misses as one coalesced
// multi-RHS solve: one operator assembly, one preconditioner
// hierarchy, K right-hand sides. Each result is bitwise identical to
// an independent cold Solve of that member, so entries stored here are
// indistinguishable from ones stored by Solve.
func (l *solverLayer) SolveBatch(ms []miss) ([]*solved, error) {
	ev0 := ms[0].ev
	ctx, cancel := l.deadline(ev0.Timeout)
	defer cancel()
	opts := l.options(ev0, ctx)
	// Members share one family by construction — the window groups by
	// family address, and batch items differ from their base only in
	// power — so the whole group runs on the engine's cached assembly.
	opts.FamilyKey = ms[0].famKey
	qs := make([][]float64, len(ms))
	for i, m := range ms {
		qs[i] = m.ev.Problem.Q
	}
	results, err := solver.SolveSteadyBatch(ev0.Problem, qs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*solved, len(ms))
	for i, m := range ms {
		out[i] = newSolved(m, results[i].T, results[i].Iterations, results[i].Residual)
		l.caches.Store(out[i])
	}
	return out, nil
}

// SolveTrace integrates a trace request under ctx, emitting
// checkpoints through topts. Traces are uncached by design, so
// nothing is stored.
func (l *solverLayer) SolveTrace(ctx context.Context, te *specio.TraceEval, topts solver.TraceOptions) (*solver.TraceResult, error) {
	opts := l.options(te.Base, ctx)
	// Traces share the family assembly cache too: a stream against a
	// known geometry skips steady assembly and reuses the per-Δt
	// augmented hierarchies of earlier streams. Hash failures just
	// leave the key empty (uncached path, as before).
	if famKey, err := FamilyKey(te.Base); err == nil {
		opts.FamilyKey = famKey
	}
	return solver.SolveTrace(te.Base.Problem, te.Base.InitialField(), te.Segments, opts, topts)
}

// solveRC answers a request from the reduced-order tier: fetch (or
// build) the family's reduced model, evaluate the request's source
// field against it, and store the certified answer under its
// fidelity-tagged key. The response carries the certified peak bound
// in BoundK; Iterations is 0 (the reduced solve is direct) and
// Residual reports the relative defect of the reconstructed field.
func (l *solverLayer) solveRC(m miss) (*solved, error) {
	rm, err := l.romModel(m.ev, m.famKey)
	if err != nil {
		return nil, err
	}
	res, err := rm.Eval(m.ev.Problem.Q)
	if err != nil {
		return nil, err
	}
	l.ctr.rcEvals.Add(1)
	l.cfg.Telemetry.Add(telemetry.CounterRCEvals, 1)
	sv := newSolved(m, res.T(), 0, res.RelResidual)
	sv.resp.Fidelity = specio.FidelityRC
	sv.resp.BoundK = telemetry.Float(res.Bound)
	l.caches.Store(sv)
	return sv, nil
}

// romModel returns the family's cached reduced model, building it on
// miss. The model depends only on geometry/materials/boundaries —
// exactly what the family key fixes — so one model serves every power
// map of the family. Aggregation is per physical tier in z (handle
// wafer in its own band) at the default in-plane block resolution.
func (l *solverLayer) romModel(ev *specio.Eval, famKey string) (*rom.Model, error) {
	if v, ok := l.caches.roms.Get(famKey); ok {
		return v.(*rom.Model), nil
	}
	bands := make([]int, len(ev.Layout.TierOfLayer))
	for k, t := range ev.Layout.TierOfLayer {
		bands[k] = t + 1
	}
	m, err := rom.Reduce(ev.Problem, rom.Options{ZBandOf: bands})
	if err != nil {
		return nil, err
	}
	l.caches.roms.Add(famKey, m)
	return m, nil
}
