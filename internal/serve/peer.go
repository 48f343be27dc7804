package serve

// Peer endpoints — the server side of the cluster protocol
// (internal/cluster is the client side). Registered only in cluster
// mode (Config.Peers != nil):
//
//	GET /v1/peer/cache/{key}  — serve a locally cached entry (404 on miss)
//	PUT /v1/peer/cache/{key}  — accept a fill from the node that solved it
//
// The GET handler consults only the local cache — this node is being
// asked *as the owner*, so recursing into PeerCache.Fetch would
// bounce a missing key around the ring. Fills are validated
// (well-formed address, matching keys) before they touch the cache:
// the content address is the integrity contract, and a corrupt entry
// must never alias a real one.

import (
	"io"
	"net/http"

	"thermalscaffold/internal/specio"
)

// peerEntry converts a finished solve to its wire form: the response
// template travels with routing fields zeroed — the serving node
// stamps its own.
func peerEntry(sv *solved) *specio.PeerCacheEntry {
	resp := sv.resp
	resp.Cached = false
	resp.Coalesced = false
	return &specio.PeerCacheEntry{Key: sv.key, Resp: resp}
}

// solvedFromPeer converts a validated wire entry back to a cache
// entry. The round-trip is exact: the response floats survived JSON
// unchanged (encoding/json round-trips float64).
func solvedFromPeer(e *specio.PeerCacheEntry) *solved {
	resp := e.Resp
	resp.Cached = false
	resp.Coalesced = false
	return &solved{key: e.Key, resp: resp}
}

func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()
	key := r.PathValue("key")
	if !specio.ValidPeerKey(key) {
		http.Error(w, "bad cache key", http.StatusBadRequest)
		return
	}
	sv, ok := s.caches.Lookup(key)
	if !ok {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	raw, err := specio.MarshalPeerEntry(peerEntry(sv))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()
	key := r.PathValue("key")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxRequestBody {
		http.Error(w, "entry exceeds 16 MiB", http.StatusRequestEntityTooLarge)
		return
	}
	e, err := specio.ParsePeerEntry(body, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.caches.Store(solvedFromPeer(e))
	w.WriteHeader(http.StatusNoContent)
}
