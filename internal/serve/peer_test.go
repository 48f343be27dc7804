package serve

// Server-side peer protocol tests: the /v1/peer endpoints with a stub
// PeerCache (no real ring), pinning validation, the local-only GET
// contract, fill → cache-hit behavior, and the snapshot counter
// merge. The client side and the cross-node contract live in
// internal/cluster.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"thermalscaffold/internal/specio"
)

// stubPeers is a controllable PeerCache: canned fetch results and
// recorded fills.
type stubPeers struct {
	fetchEntry *specio.PeerCacheEntry
	fills      []*specio.PeerCacheEntry
}

func (p *stubPeers) Fetch(ctx context.Context, key string) (*specio.PeerCacheEntry, bool) {
	if p.fetchEntry != nil && p.fetchEntry.Key == key {
		return p.fetchEntry, true
	}
	return nil, false
}

func (p *stubPeers) Fill(e *specio.PeerCacheEntry) { p.fills = append(p.fills, e) }

func (p *stubPeers) Stats() map[string]int64 {
	return map[string]int64{"peer_hits": 42}
}

func peerTestServer(t *testing.T) (*Server, *stubPeers) {
	t.Helper()
	peers := &stubPeers{}
	s := New(Config{SolverWorkers: 1, Peers: peers})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, peers
}

func do(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestPeerGet: bad key → 400, miss → 404, and after a local solve the
// owner serves the entry with routing flags zeroed and the exact
// response numbers.
func TestPeerGet(t *testing.T) {
	s, _ := peerTestServer(t)
	if rec := do(s, "GET", "/v1/peer/cache/not-a-key", nil); rec.Code != 400 {
		t.Fatalf("bad key: HTTP %d", rec.Code)
	}
	miss := strings.Repeat("a", 64)
	if rec := do(s, "GET", "/v1/peer/cache/"+miss, nil); rec.Code != 404 {
		t.Fatalf("miss: HTTP %d", rec.Code)
	}

	// Solve something, then fetch it as a peer would.
	code, resp := postEval(t, s, testRequest(17))
	if code != 200 {
		t.Fatalf("priming solve: HTTP %d", code)
	}
	rec := do(s, "GET", "/v1/peer/cache/"+resp.Key, nil)
	if rec.Code != 200 {
		t.Fatalf("owner GET: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	e, err := specio.ParsePeerEntry(rec.Body.Bytes(), resp.Key)
	if err != nil {
		t.Fatal(err)
	}
	if e.Resp.Cached || e.Resp.Coalesced {
		t.Fatalf("wire entry carries routing flags: %+v", e.Resp)
	}
	if err := sameNumbers(e.Resp, resp); err != nil {
		t.Fatalf("wire entry differs from the solve (must be bitwise): %v", err)
	}
}

// TestPeerPut: a valid fill lands in the local cache (the next eval
// of that request is a cache hit with identical numbers); invalid
// fills are rejected before touching anything.
func TestPeerPut(t *testing.T) {
	donor, _ := peerTestServer(t)
	code, resp := postEval(t, donor, testRequest(23))
	if code != 200 {
		t.Fatalf("donor solve: HTTP %d", code)
	}
	rec := do(donor, "GET", "/v1/peer/cache/"+resp.Key, nil)
	if rec.Code != 200 {
		t.Fatalf("donor GET: HTTP %d", rec.Code)
	}
	wire := rec.Body.Bytes()

	s, _ := peerTestServer(t)
	// Fill under the wrong address: rejected.
	if rec := do(s, "PUT", "/v1/peer/cache/"+strings.Repeat("b", 64), wire); rec.Code != 400 {
		t.Fatalf("mismatched fill: HTTP %d", rec.Code)
	}
	if rec := do(s, "PUT", "/v1/peer/cache/"+resp.Key, []byte("{bad")); rec.Code != 400 {
		t.Fatalf("garbage fill: HTTP %d", rec.Code)
	}
	// Correct fill: 204, then the eval path serves it as a hit with
	// the donor's exact numbers.
	if rec := do(s, "PUT", "/v1/peer/cache/"+resp.Key, wire); rec.Code != 204 {
		t.Fatalf("fill: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	hitCode, hit := postEval(t, s, testRequest(23))
	if hitCode != 200 || !hit.Cached {
		t.Fatalf("filled entry not served as a hit: HTTP %d cached=%v", hitCode, hit.Cached)
	}
	if hit.PeakT != resp.PeakT || hit.MeanT != resp.MeanT || hit.Iterations != resp.Iterations {
		t.Fatalf("filled hit drifted from donor solve: %+v vs %+v", hit, resp)
	}
}

// TestPeerFetchOnEvalMiss: a local miss consults the peer cache and
// serves the peer's entry as a cache hit; the solve is skipped
// entirely.
func TestPeerFetchOnEvalMiss(t *testing.T) {
	donor, _ := peerTestServer(t)
	code, resp := postEval(t, donor, testRequest(29))
	if code != 200 {
		t.Fatalf("donor solve: HTTP %d", code)
	}
	rec := do(donor, "GET", "/v1/peer/cache/"+resp.Key, nil)
	e, err := specio.ParsePeerEntry(rec.Body.Bytes(), resp.Key)
	if err != nil {
		t.Fatal(err)
	}

	s, peers := peerTestServer(t)
	peers.fetchEntry = e
	hitCode, hit := postEval(t, s, testRequest(29))
	if hitCode != 200 || !hit.Cached {
		t.Fatalf("peer fetch not served as a hit: HTTP %d cached=%v", hitCode, hit.Cached)
	}
	if hit.PeakT != resp.PeakT || hit.Iterations != resp.Iterations {
		t.Fatalf("peer-served response drifted: %+v vs %+v", hit, resp)
	}
	// The fetched entry is now local: a repeat hits without the peer.
	peers.fetchEntry = nil
	againCode, again := postEval(t, s, testRequest(29))
	if againCode != 200 || !again.Cached {
		t.Fatal("peer-fetched entry was not stored locally")
	}
}

// TestMetricsMergesPeerCounters: /metrics carries the PeerCache's
// counters in cluster mode.
func TestMetricsMergesPeerCounters(t *testing.T) {
	s, _ := peerTestServer(t)
	rec := do(s, "GET", "/metrics", nil)
	if rec.Code != 200 {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if m.Counters["peer_hits"] != 42 {
		t.Fatalf("peer counters not merged into /metrics: %v", m.Counters)
	}
}
