// Package cluster implements the shard-aware scale-out of thermserve
// (DESIGN.md §14): a consistent-hash ring over the service's
// SHA-256 content addresses, a hedged peer-to-peer cache client for
// the /v1/peer endpoints served by internal/serve, and health-checked
// ring membership with rebalancing.
//
// The cluster layer is pure routing: it decides which node a content
// address lives on and moves immutable, bit-exact cache entries
// between nodes. It never produces numbers — any response served
// through the cluster is bitwise identical to a single-node solve of
// the same request (the conformance suite pins this across 1/2/4
// node rings).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per member. 160 points per
// node keeps the key distribution within a few percent of uniform at
// small cluster sizes (the ring property test enforces ±15% at 4
// nodes with a wide margin).
const DefaultVnodes = 160

// Ring is an immutable consistent-hash ring snapshot: membership
// changes build a new ring (see membership.go), so lookups are
// lock-free and a ring handed to a caller never mutates underneath
// it.
//
// Each member contributes vnodes points placed by hashing
// "id\x00vnode-index"; a key is owned by the member whose point is
// the first at or clockwise after the key's hash. Because a member's
// points depend only on its own ID, adding or removing a member moves
// only the keys that land on the changed points — the minimal-
// movement property the ring tests pin: ownership never shifts
// laterally between two members present in both rings.
type Ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // sorted member IDs
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring over the given member IDs with vnodes points
// per member (≤ 0 → DefaultVnodes). Duplicate IDs collapse; an empty
// membership yields a ring that owns nothing.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make(map[string]bool, len(ids))
	for _, id := range ids {
		uniq[id] = true
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(uniq)*vnodes),
		ids:    make([]string, 0, len(uniq)),
	}
	for id := range uniq {
		r.ids = append(r.ids, id)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), id: id})
		}
	}
	sort.Strings(r.ids)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Ties (astronomically rare with 64-bit SHA points) break by ID
		// so the ring is a pure function of its membership set.
		return a.id < b.id
	})
	return r
}

// pointHash places one virtual node: the first 8 bytes of
// SHA-256(id || 0x00 || vnode-index), big-endian. SHA-256 keeps vnode
// placement uncorrelated across IDs — cheap string hashes cluster
// points for sequential IDs like "node0".."node3".
func pointHash(id string, vnode int) uint64 {
	h := sha256.New()
	h.Write([]byte(id))
	var sep [9]byte // 0x00 separator + fixed-width index: "a"+1 can never alias "a1"+...
	binary.BigEndian.PutUint64(sep[1:], uint64(vnode))
	h.Write(sep[:])
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// keyHash places a content address on the ring. The key is already a
// SHA-256 in hex, but it is re-hashed rather than parsed: ownership
// must be well-defined for any string (the fuzz targets feed hostile
// keys), and re-hashing decorrelates ring position from cache-key
// structure for free.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return r.points[i].id
}

// Members returns the sorted member IDs (shared slice; do not
// mutate).
func (r *Ring) Members() []string { return r.ids }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.ids) }

// String renders the membership for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring%v", r.ids)
}
