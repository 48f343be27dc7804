package specio

// Peer cache wire schema: the JSON spoken between thermserve nodes in
// cluster mode (internal/cluster, DESIGN.md §14). One entry carries a
// content-addressed solve result — its key plus the response template
// — between the node that ran the solve and the node the
// consistent-hash ring makes its owner:
//
//	GET /v1/peer/cache/{key}  → 200 PeerCacheEntry | 404
//	PUT /v1/peer/cache/{key}  ← PeerCacheEntry (fill), 204
//
// The response floats round-trip JSON exactly (encoding/json prints
// the shortest representation that parses back to the same float64),
// so a fetched entry is bitwise identical to the solve that produced
// it — the foundation of the determinism-across-nodes contract: a
// response served through any node of the ring carries exactly the
// bits a single-node solve of the same request would have produced.

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// peerKeyRE is the shape of a content address on the wire: 64
// lowercase hex characters (SHA-256).
var peerKeyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidPeerKey reports whether key is a well-formed content address.
// Peer endpoints reject anything else before touching the cache, so a
// malformed or hostile path segment can never alias a real entry.
func ValidPeerKey(key string) bool { return peerKeyRE.MatchString(key) }

// PeerCacheEntry is the wire form of one content-addressed cache
// entry.
type PeerCacheEntry struct {
	// Key is the entry's content address; it must equal the {key}
	// path segment it is stored or fetched under.
	Key string `json:"key"`
	// Resp is the response template. Routing fields
	// (Cached/Coalesced/WallNS) are stamped per reply by the serving
	// node; every numeric field is forwarded verbatim.
	Resp EvalResponse `json:"response"`
}

// Validate checks an entry against the address it travels under:
// a well-formed key, and matching path/body/response addresses.
func (e *PeerCacheEntry) Validate(key string) error {
	if !ValidPeerKey(key) {
		return fmt.Errorf("specio: bad peer cache key %q", key)
	}
	if e.Key != key {
		return fmt.Errorf("specio: peer entry key %q does not match address %q", e.Key, key)
	}
	if e.Resp.Key != key {
		return fmt.Errorf("specio: peer entry response key %q does not match address %q", e.Resp.Key, key)
	}
	return nil
}

// ParsePeerEntry decodes and validates a wire entry fetched or filled
// under key.
func ParsePeerEntry(raw []byte, key string) (*PeerCacheEntry, error) {
	var e PeerCacheEntry
	if err := unmarshalStrictish(raw, &e); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	if err := e.Validate(key); err != nil {
		return nil, err
	}
	return &e, nil
}

// MarshalPeerEntry renders an entry for the wire (compact: peer
// traffic is node-to-node, not human-facing).
func MarshalPeerEntry(e *PeerCacheEntry) ([]byte, error) {
	return json.Marshal(e)
}
