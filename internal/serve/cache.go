package serve

import (
	"container/list"
	"sync"
)

// lru is a small mutex-guarded LRU map. The server keeps three: the
// result cache (holding *solved), the key memo (normalized request →
// content address), and the rc model cache. Entries are immutable
// once inserted — result readers all share the same *solved, which is
// what makes cached and coalesced responses bitwise identical to the
// solve that produced them.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRU returns a cache holding up to max entries; max ≤ 0 disables
// the cache entirely (every Get misses, every Add drops).
func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lru) enabled() bool { return c.max > 0 }

// Get returns the cached value and promotes it to most-recent.
func (c *lru) Get(key string) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// getSolved is Get for the result cache.
func (c *lru) getSolved(key string) (*solved, bool) {
	v, ok := c.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*solved), true
}

// Add inserts or refreshes an entry, evicting the least-recent one
// past capacity.
func (c *lru) Add(key string, v any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = v
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the current entry count.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
