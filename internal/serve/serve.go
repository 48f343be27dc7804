// Package serve implements the thermal evaluation service behind
// cmd/thermserve: a long-running HTTP/JSON front-end over the solve
// pipeline that accepts steady/transient stack evaluations and runs
// them on a bounded worker pool with per-request deadlines, request
// coalescing, and a content-addressed solve cache.
//
// The serving pipeline is composed from three explicit layers (see
// layers.go) plus an optional cluster seam, in order:
//
//  1. Decode + normalize the request (internal/specio) and assemble
//     the solver problem; compute its canonical content address (Key)
//     and family address (FamilyKey: the same bytes minus the power
//     map, which keys the solver's assembly reuse and the batching
//     window).
//  2. Cache layer: an exact repeat is answered from the local LRU
//     without touching the solver — bitwise identical to the solve
//     that populated it, because the stored result is immutable and
//     shared. In cluster mode a local miss consults the key's ring
//     owner (PeerCache.Fetch, hedged, short timeout); a slow or dead
//     peer degrades to a local solve, never an error.
//  3. Coalescing: identical requests already in flight piggyback on
//     the running solve (singleflight) and all observe the same
//     result object.
//  4. Admission layer: fresh work is bounded by Parallel running
//     solves plus QueueDepth waiters; beyond that the request is shed
//     with 503 + Retry-After, never queued unboundedly.
//  5. Solve layer: per-request deadline propagated into
//     solver.Options.Ctx; every solve starts cold. With BatchWindow
//     set, same-family steady misses solve together as one group
//     (window.go), the same group solve /v1/evalbatch uses. Finished
//     solves are stored locally and offered to their ring owner.
//
// Observability: cache hits/misses, coalesced and rejected counts,
// peer hit/miss/hedge counters (cluster mode), queue depth, and
// p50/p99 latency surface on /metrics (and optionally expvar);
// /healthz flips to 503 during drain. Graceful shutdown drains
// in-flight requests, rejecting new ones.
//
// Determinism: everything above the solver is routing. For a fixed
// SolverWorkers the solver is bit-reproducible and every solve starts
// cold, so each response is a pure function of the request and
// SolverWorkers — never of arrival order. The cache stores the
// response template verbatim (and ships it between nodes with its
// floats intact), and coalesced followers share the leader's result
// object, so cached, coalesced, and peer-fetched responses are
// bitwise identical to the solve that produced them (pinned by the
// equivalence tests at Workers 1 and 8, the arrival-order test, and
// the cluster conformance suite; see DESIGN.md §9, §14).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// Config sizes the service. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// SolverWorkers is solver.Options.Workers for each solve (0 → 1:
	// a service gets its parallelism from concurrent requests, so
	// serial per-solve kernels with Parallel solves in flight is the
	// high-throughput shape; set >1 to trade throughput for single
	// -request latency on big grids).
	SolverWorkers int
	// Parallel bounds concurrently running solves (0 → GOMAXPROCS).
	Parallel int
	// QueueDepth bounds solves waiting for a slot beyond the running
	// ones; past Parallel+QueueDepth requests are shed with 503
	// (0 → 64, negative → 0: no queue, immediate shed).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache and the
	// normalized-request key memo — the two indexes address the same
	// entries, so one knob sizes both (0 → 256, negative disables
	// caching).
	CacheSize int
	// Deprecated: ignored; there is no warm-start family index.
	FamilySize int
	// ROMCacheSize bounds the reduced-model cache of the rc fidelity
	// tier, keyed by family — one model serves every power map of a
	// geometry (0 → 32, negative disables: each rc request reduces
	// from scratch).
	ROMCacheSize int
	// Deprecated: ignored; every solve starts cold.
	DisableWarmStart bool
	// BatchWindow, when positive, turns on cross-request solve
	// batching: steady misses that share a family key wait up to this
	// long (or until MaxBatch siblings gather) and execute as one
	// multi-RHS group solve against the family's cached assembly — the
	// same group solve /v1/evalbatch runs. A window that closes with a
	// single request is a group of one. Windowed responses are bitwise
	// identical to a solo solve of the same request. 0 disables
	// batching. Production values are 2–5ms: long enough to catch a
	// storm's siblings, short enough to vanish under solve latency.
	BatchWindow time.Duration
	// MaxBatch caps how many requests one window may gather before it
	// flushes early (0 → 16).
	MaxBatch int
	// AssemblyCache sizes the solver engine's family-keyed assembly
	// cache — how many distinct geometries keep their assembled
	// operator, SoA stencil, and preconditioner hierarchies warm
	// across requests (0 → the engine default of 8, negative
	// disables: every cold solve assembles from scratch).
	AssemblyCache int
	// FamilyMemo sizes the family-prefix memo — how many families keep
	// their built geometry and prefix digest state pinned so
	// same-family requests skip problem assembly and prefix hashing
	// (0 → 8, negative disables: every request builds and hashes from
	// scratch, the pre-reuse cold path). Each entry pins one family's
	// geometry arrays, so size it like AssemblyCache.
	FamilyMemo int
	// DefaultTimeout is the per-request solve deadline when the
	// request does not carry one (0 → 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 → 5m).
	MaxTimeout time.Duration
	// Peers, when non-nil, puts the server in cluster mode: local
	// cache misses consult the key's ring owner, finished solves are
	// offered back, and the peer endpoints (/v1/peer/...) are
	// registered. See internal/cluster.
	Peers PeerCache
	// Telemetry, when non-nil, receives solve traces plus the service
	// counters (cache hits/misses, coalesced, rejected).
	Telemetry *telemetry.Collector
}

func (c Config) withDefaults() Config {
	if c.SolverWorkers <= 0 {
		c.SolverWorkers = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.ROMCacheSize == 0 {
		c.ROMCacheSize = 32
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.FamilyMemo == 0 {
		c.FamilyMemo = famPrefixMemoCap
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// maxRequestBody bounds the decoded request size (power maps on a
// 256×256 grid fit with room to spare).
const maxRequestBody = 16 << 20

var (
	errBusy     = errors.New("serve: saturated — queue full")
	errDraining = errors.New("serve: draining — not accepting work")
)

// solved is one immutable cache entry: the content address and the
// response template. Replies copy the template and stamp only the
// routing fields (Cached/Coalesced/WallNS), so every reply derived
// from one solve carries bitwise-identical numbers.
type solved struct {
	key  string
	resp specio.EvalResponse
}

// keyPair is one key-memo entry: the content and family addresses of
// a normalized request.
type keyPair struct {
	key, family string
}

// counters is the service counter block, shared with the solve layer.
type counters struct {
	hits, misses, coalesced, rejected, failures atomic.Int64
	rcEvals                                     atomic.Int64
	traceStreams, traceCheckpoints              atomic.Int64
	batchFlushes, batchOccupancy                atomic.Int64
}

// Server is the evaluation service. Create with New; it implements
// http.Handler. It composes the cache, admission, and solve layers
// (layers.go) with HTTP routing, coalescing, and drain.
type Server struct {
	cfg     Config
	caches  *cacheLayer
	gate    *gate
	backend *solverLayer
	peers   PeerCache
	flights flightGroup
	win     *winBatcher // nil unless Config.BatchWindow > 0
	famMemo *famPrefixMemo

	mu       sync.Mutex // guards draining vs. inflight.Add
	draining bool
	inflight sync.WaitGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc

	ctr counters

	lat *telemetry.LatencyWindow
	mux *http.ServeMux
}

// New builds a server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	caches := newCacheLayer(cfg)
	s := &Server{
		cfg:        cfg,
		caches:     caches,
		gate:       newGate(cfg.Parallel, cfg.QueueDepth),
		peers:      cfg.Peers,
		famMemo:    newFamPrefixMemo(cfg.FamilyMemo),
		baseCtx:    ctx,
		cancelBase: cancel,
		lat:        telemetry.NewLatencyWindow(0),
		mux:        http.NewServeMux(),
	}
	s.backend = newSolverLayer(cfg, caches, cfg.Peers, ctx, &s.ctr)
	if cfg.BatchWindow > 0 {
		s.win = newWinBatcher(cfg.BatchWindow, cfg.MaxBatch, s)
	}
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/evalbatch", s.handleEvalBatch)
	s.mux.HandleFunc("POST /v1/evaltrace", s.handleEvalTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Peers != nil {
		s.mux.HandleFunc("GET /v1/peer/cache/{key}", s.handlePeerGet)
		s.mux.HandleFunc("PUT /v1/peer/cache/{key}", s.handlePeerPut)
	}
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// enter registers an in-flight request; it fails once draining has
// begun. The mutex makes the draining check and WaitGroup.Add atomic
// with respect to Shutdown's Wait.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: new requests are rejected with 503,
// in-flight ones run to completion. If ctx expires first, running
// solves are cancelled (they return within one solver iteration,
// answering 504) and Shutdown still waits for handlers to finish
// before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelBase()
		s.backend.Close()
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		s.backend.Close()
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// MetricsSnapshot is the /metrics payload.
type MetricsSnapshot struct {
	QueueDepth   int64            `json:"queue_depth"`
	Running      int64            `json:"running"`
	CacheEntries int              `json:"cache_entries"`
	Counters     map[string]int64 `json:"counters"`
	LatencyMS    map[string]any   `json:"latency_ms"`
}

func (s *Server) snapshot() MetricsSnapshot {
	qd := s.gate.Pending() - s.gate.Running()
	if qd < 0 {
		qd = 0
	}
	qs := s.lat.Quantiles(0.5, 0.99)
	built, famHits, famMisses := s.backend.AssemblyStats()
	counters := map[string]int64{
		telemetry.CounterCacheHits:            s.ctr.hits.Load(),
		telemetry.CounterCacheMisses:          s.ctr.misses.Load(),
		telemetry.CounterCoalesced:            s.ctr.coalesced.Load(),
		telemetry.CounterRejected:             s.ctr.rejected.Load(),
		telemetry.CounterRCEvals:              s.ctr.rcEvals.Load(),
		telemetry.CounterTraceStreams:         s.ctr.traceStreams.Load(),
		telemetry.CounterTraceCheckpoints:     s.ctr.traceCheckpoints.Load(),
		telemetry.CounterFamilyAssemblyHits:   famHits,
		telemetry.CounterFamilyAssemblyMisses: famMisses,
		telemetry.CounterBatchWindowFlushes:   s.ctr.batchFlushes.Load(),
		telemetry.CounterBatchWindowOccupancy: s.ctr.batchOccupancy.Load(),
		"family_assemblies":                   built,
		"solve_failures":                      s.ctr.failures.Load(),
	}
	if s.peers != nil {
		// Cluster mode: merge the peer hit/miss/hedge/fill counters so
		// one /metrics scrape sees the whole lookup funnel.
		for k, v := range s.peers.Stats() {
			counters[k] = v
		}
	}
	return MetricsSnapshot{
		QueueDepth:   qd,
		Running:      s.gate.Running(),
		CacheEntries: s.caches.results.Len(),
		Counters:     counters,
		LatencyMS: map[string]any{
			"count": s.lat.Count(),
			"p50":   float64(qs[0]) / float64(time.Millisecond),
			"p99":   float64(qs[1]) / float64(time.Millisecond),
		},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

// expvarServers routes each published name to the server that most
// recently claimed it — expvar forbids re-publishing a name, but a
// process (or test binary) may construct several servers.
var (
	expvarMu      sync.Mutex
	expvarServers = map[string]*Server{}
)

// PublishExpvar exposes the metrics snapshot as a named expvar (shown
// on any /debug/vars endpoint). Idempotent per name: the variable
// always reflects the latest server published under it.
func (s *Server) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarServers[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			srv := expvarServers[name]
			expvarMu.Unlock()
			return srv.snapshot()
		}))
	}
	expvarServers[name] = s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	s.ctr.rejected.Add(1)
	s.cfg.Telemetry.Add(telemetry.CounterRejected, 1)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, specio.EvalResponse{Error: msg})
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()

	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalResponse{Error: err.Error()})
		return
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, specio.EvalResponse{Error: "request body exceeds 16 MiB"})
		return
	}
	req, err := specio.ParseEval(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalResponse{Error: err.Error()})
		return
	}
	// ?fidelity=rc|full selects the ladder tier without editing the
	// body; an explicit query overrides the body field, and bogus
	// values fall to Normalize's validation below.
	if f := r.URL.Query().Get("fidelity"); f != "" {
		req.Fidelity = f
	}
	norm, err := req.Normalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalResponse{Error: err.Error()})
		return
	}
	mode := "steady"
	if norm.Transient != nil {
		mode = "transient"
	}

	ev, key, famKey, status, err := s.resolveKeys(norm)
	if err != nil {
		writeJSON(w, status, specio.EvalResponse{Error: err.Error()})
		return
	}

	if hit, ok := s.caches.Lookup(key); ok {
		s.ctr.hits.Add(1)
		s.cfg.Telemetry.Add(telemetry.CounterCacheHits, 1)
		s.respond(w, hit, start, true, false)
		return
	}

	var leaderHit bool // leader found the entry cached (locally or on a peer)
	var buildErr error
	sv, err, shared := s.flights.Do(key, func() (*solved, error) {
		// Double-check: a concurrent flight may have finished (and
		// populated the cache) between our Lookup miss and becoming
		// leader. In cluster mode this also asks the key's ring owner.
		if hit, ok := s.lookup(key); ok {
			leaderHit = true
			return hit, nil
		}
		if ev == nil {
			// Memoized key but evicted (or never cached) result: build
			// the problem for the solve. The memo only holds keys of
			// requests that built successfully, so failures here are
			// 400s all the same.
			if ev, buildErr = specio.BuildEval(norm); buildErr != nil {
				return nil, buildErr
			}
		}
		// Cross-request batching: a steady full-fidelity miss parks in
		// its family's window so concurrent siblings flush as one
		// multi-RHS solve. Everything else (transient, rc, window off)
		// solves solo.
		m := miss{ev: ev, key: key, famKey: famKey}
		if s.win != nil && ev.Steady() && !ev.RC() {
			return s.win.do(m)
		}
		return s.admitAndSolve(m)
	})
	switch {
	case err == nil:
	case buildErr != nil && errors.Is(err, buildErr):
		writeJSON(w, http.StatusBadRequest, specio.EvalResponse{Error: err.Error()})
		return
	case errors.Is(err, errBusy):
		s.reject(w, http.StatusServiceUnavailable, "solve queue is full, retry later")
		return
	case errors.Is(err, errDraining):
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
		s.ctr.failures.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			// The base context only cancels during shutdown.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, specio.EvalResponse{Key: key, Mode: mode, Error: err.Error()})
		return
	}
	switch {
	case shared:
		s.ctr.coalesced.Add(1)
		s.cfg.Telemetry.Add(telemetry.CounterCoalesced, 1)
	case leaderHit:
		s.ctr.hits.Add(1)
		s.cfg.Telemetry.Add(telemetry.CounterCacheHits, 1)
	default:
		s.ctr.misses.Add(1)
		s.cfg.Telemetry.Add(telemetry.CounterCacheMisses, 1)
	}
	s.respond(w, sv, start, leaderHit && !shared, shared)
}

// resolveKeys returns the content and family addresses of a
// normalized request, consulting the key memo first — a request whose
// normalized form was addressed before skips problem assembly and
// hashing entirely. Requests that miss the key memo but share a
// family with a recent one skip geometry assembly and prefix hashing
// through the family-prefix memo. ev is non-nil only when the problem
// had to be assembled or cloned (key-memo miss); callers that go on
// to solve must BuildEval themselves when it is nil and the result
// cache also misses. On error, status is the HTTP status to answer
// with.
func (s *Server) resolveKeys(norm specio.EvalRequest) (ev *specio.Eval, key, famKey string, status int, err error) {
	var memoKey string
	if normJSON, jerr := json.Marshal(norm); jerr == nil {
		memoKey = string(normJSON)
		if v, ok := s.caches.keys.Get(memoKey); ok {
			kp := v.(keyPair)
			return nil, kp.key, kp.family, 0, nil
		}
	}
	if ev, key, famKey, status, err = s.famMemo.resolve(norm); err != nil {
		return nil, "", "", status, err
	}
	if memoKey != "" {
		s.caches.keys.Add(memoKey, keyPair{key: key, family: famKey})
	}
	return ev, key, famKey, 0, nil
}

// lookup answers a content address without solving: from the local
// cache, else (cluster mode) from the key's ring owner. A peer hit is
// the owner's stored entry, bit for bit, and is kept locally so the
// next repeat skips the network; a slow or dead peer is a miss.
func (s *Server) lookup(key string) (*solved, bool) {
	if sv, ok := s.caches.Lookup(key); ok {
		return sv, true
	}
	if s.peers == nil {
		return nil, false
	}
	e, ok := s.peers.Fetch(s.baseCtx, key)
	if !ok {
		return nil, false
	}
	sv := solvedFromPeer(e)
	s.caches.Store(sv)
	return sv, true
}

// respond writes one reply from an immutable solved entry. Only the
// routing fields are stamped per reply; every numeric field is the
// template's, untouched.
func (s *Server) respond(w http.ResponseWriter, sv *solved, start time.Time, cached, coalesced bool) {
	resp := sv.resp
	resp.Cached = cached
	resp.Coalesced = coalesced
	resp.WallNS = time.Since(start).Nanoseconds()
	s.lat.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// admitAndSolve applies backpressure and the running-solve bound,
// then solves. Only flight leaders get here, so coalesced duplicates
// never consume queue slots.
func (s *Server) admitAndSolve(m miss) (*solved, error) {
	release, err := s.gate.Admit(s.baseCtx.Done())
	if err != nil {
		return nil, err
	}
	defer release()
	return s.backend.Solve(m)
}

// solveGroup runs same-family steady misses as one unit of work: one
// admission slot and one multi-RHS solve. The batching window's
// flushes and /v1/evalbatch both solve through it, and a group of one
// is no special case. Each member's numbers are bitwise identical to a
// solo solve of that member.
func (s *Server) solveGroup(ms []miss) ([]*solved, error) {
	release, err := s.gate.Admit(s.baseCtx.Done())
	if err != nil {
		return nil, err
	}
	defer release()
	return s.backend.SolveBatch(ms)
}
