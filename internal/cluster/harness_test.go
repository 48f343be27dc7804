package cluster

// In-process cluster harness: N real thermserve nodes (serve.Server
// behind httptest listeners) joined into a ring by N cluster clients,
// plus a plain single-node reference server. The conformance and
// fault suites drive requests over real HTTP, so the peer endpoints,
// the hedged client, and the wire schema are all exercised exactly as
// in production — just on loopback.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/specio"
)

// Cluster must satisfy the service's peer seam.
var _ serve.PeerCache = (*Cluster)(nil)

// swapHandler lets the httptest listener exist before the server that
// will answer on it (the cluster client needs every node's URL before
// any node's serve.Server can be built with Peers set).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// faultTransport is the injectable RoundTripper for the fault suite:
// per-destination blocking (a partition: requests fail immediately)
// and delaying (a slow peer), toggled at runtime.
type faultTransport struct {
	mu      sync.Mutex
	blocked map[string]bool
	delays  map[string]time.Duration
	base    http.RoundTripper
}

func newFaultTransport() *faultTransport {
	return &faultTransport{
		blocked: map[string]bool{},
		delays:  map[string]time.Duration{},
		base:    http.DefaultTransport,
	}
}

func (f *faultTransport) block(hostport string) {
	f.mu.Lock()
	f.blocked[hostport] = true
	f.mu.Unlock()
}
func (f *faultTransport) unblock(hostport string) {
	f.mu.Lock()
	delete(f.blocked, hostport)
	f.mu.Unlock()
}
func (f *faultTransport) delay(hostport string, d time.Duration) {
	f.mu.Lock()
	f.delays[hostport] = d
	f.mu.Unlock()
}

func (f *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	blocked := f.blocked[r.URL.Host]
	d := f.delays[r.URL.Host]
	f.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("faultTransport: %s is partitioned", r.URL.Host)
	}
	if d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return f.base.RoundTrip(r)
}

// testNode is one ring member.
type testNode struct {
	id    string
	hs    *httptest.Server
	clu   *Cluster
	srv   *serve.Server
	fault *faultTransport
}

// hostport returns the node's listener address (the thing a peer's
// faultTransport blocks to partition it away).
func (n *testNode) hostport(tb testing.TB) string {
	tb.Helper()
	return n.hs.Listener.Addr().String()
}

// testRing is an N-node in-process cluster.
type testRing struct {
	nodes []*testNode
}

// ringOpts tunes the harness.
type ringOpts struct {
	cacheSize    int           // per-node CacheSize (0 → serve default)
	hedgeDelay   time.Duration // 0 → a generous 150ms (hedges off in practice)
	fetchTimeout time.Duration // 0 → 5s (CI under -race is slow)
	batchWindow  time.Duration // per-node micro-batching window (0 = off)
	maxBatch     int           // per-node window capacity (0 → serve default)
}

// startRing boots an N-node cluster. Probing is disabled — fault
// tests drive ProbeOnce explicitly so health transitions are
// deterministic.
func startRing(tb testing.TB, n int, opts ringOpts) *testRing {
	tb.Helper()
	if opts.hedgeDelay == 0 {
		opts.hedgeDelay = 150 * time.Millisecond
	}
	if opts.fetchTimeout == 0 {
		opts.fetchTimeout = 5 * time.Second
	}
	ring := &testRing{}
	var specs []NodeSpec
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		hs := httptest.NewServer(swaps[i])
		node := &testNode{id: fmt.Sprintf("node%d", i), hs: hs, fault: newFaultTransport()}
		ring.nodes = append(ring.nodes, node)
		specs = append(specs, NodeSpec{ID: node.id, URL: hs.URL})
	}
	for i, node := range ring.nodes {
		clu, err := New(Config{
			Self:          node.id,
			Nodes:         specs,
			FetchTimeout:  opts.fetchTimeout,
			HedgeDelay:    opts.hedgeDelay,
			ProbeInterval: -1,
			Transport:     node.fault,
		})
		if err != nil {
			tb.Fatal(err)
		}
		node.clu = clu
		node.srv = serve.New(serve.Config{
			SolverWorkers: 1,
			Parallel:      2,
			QueueDepth:    32,
			CacheSize:     opts.cacheSize,
			BatchWindow:   opts.batchWindow,
			MaxBatch:      opts.maxBatch,
			Peers:         clu,
		})
		swaps[i].set(node.srv)
	}
	tb.Cleanup(func() { ring.stop() })
	return ring
}

func (r *testRing) stop() {
	for _, n := range r.nodes {
		if n.srv != nil {
			n.srv.Shutdown(context.Background())
		}
		if n.clu != nil {
			n.clu.Close()
		}
		n.hs.Close()
	}
}

// sync waits until every node's background fills have landed, making
// "solve here, hit there" deterministic for the tests.
func (r *testRing) sync() {
	for _, n := range r.nodes {
		n.clu.Sync()
	}
}

// post sends one JSON request to a node over real HTTP.
func (r *testRing) post(tb testing.TB, node int, path string, body []byte) (int, []byte) {
	tb.Helper()
	return postJSON(tb, r.nodes[node].hs.URL+path, body)
}

// singleNode is the reference: the same serve.Config, no peers.
type singleNode struct {
	hs  *httptest.Server
	srv *serve.Server
}

func startSingle(tb testing.TB, opts ringOpts) *singleNode {
	tb.Helper()
	srv := serve.New(serve.Config{
		SolverWorkers: 1,
		Parallel:      2,
		QueueDepth:    32,
		CacheSize:     opts.cacheSize,
	})
	hs := httptest.NewServer(srv)
	tb.Cleanup(func() {
		srv.Shutdown(context.Background())
		hs.Close()
	})
	return &singleNode{hs: hs, srv: srv}
}

func (s *singleNode) post(tb testing.TB, path string, body []byte) (int, []byte) {
	tb.Helper()
	return postJSON(tb, s.hs.URL+path, body)
}

func postJSON(tb testing.TB, url string, body []byte) (int, []byte) {
	tb.Helper()
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return res.StatusCode, raw
}

// wallRE matches the only nondeterministic bytes in a response:
// wall-clock fields. Everything else must be bitwise identical across
// nodes.
var wallRE = regexp.MustCompile(`"wall_ns":\s*-?\d+`)

func zeroWall(raw []byte) []byte {
	return wallRE.ReplaceAll(raw, []byte(`"wall_ns":0`))
}

// waitFor polls cond for up to ~5s.
func waitFor(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatal("condition not reached within 5s")
}

// checkNoGoroutineLeak asserts the goroutine count returns to (near)
// baseline — peers dying mid-request must not strand fetch or fill
// goroutines.
func checkNoGoroutineLeak(tb testing.TB, baseline int) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			tb.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- request corpus ------------------------------------------------

// clusterStack mirrors the serve suite's small fast stack: a few
// milliseconds per cold solve at 2 tiers × 8×8.
func clusterStack(power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: 2, NX: 8, NY: 8,
		UniformPower: power,
		BEOL:         "scaffolded",
		PillarCover:  0.1,
		Sink:         "twophase",
	}
}

func steadyReq(power float64) specio.EvalRequest {
	return specio.EvalRequest{Stack: clusterStack(power)}
}

// conformanceCorpus is the replayed request set: steady solves at
// distinct powers (distinct content addresses), an rc-fidelity
// request, and a transient request — every cacheable mode the service
// has.
func conformanceCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var reqs []specio.EvalRequest
	for _, p := range []float64{10, 20, 30, 40, 55} {
		reqs = append(reqs, steadyReq(p))
	}
	rc := steadyReq(25)
	rc.Fidelity = specio.FidelityRC
	reqs = append(reqs, rc)
	tr := steadyReq(35)
	tr.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 3}
	reqs = append(reqs, tr)

	var out [][]byte
	for _, rq := range reqs {
		raw, err := specio.MarshalEval(rq)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}
