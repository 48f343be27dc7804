package serve

// Cross-request solve batching (Config.BatchWindow). A steady miss
// that reaches the solve layer parks in a per-family window instead
// of solving immediately; concurrent misses of the same family (same
// geometry/materials/boundaries/options, different power maps) join
// it. The window flushes when BatchWindow elapses or MaxBatch
// siblings gather, whichever is first, and the whole group executes
// through solveGroup — ONE admission unit and one
// solver.SolveSteadyBatch against the engine's cached family
// assembly, exactly like a /v1/evalbatch request: K power maps are K
// right-hand sides of one operator.
//
// Determinism: the group solve is bitwise identical, member by
// member, to a solo solve of the same request — the /v1/evalbatch
// contract, applied across requests. A window that closes with one
// member is a group of one, so enabling the window never changes an
// answer, only when it arrives.
//
// Interactions: the window sits strictly after the cache and
// singleflight layers — only flight leaders park, so duplicates
// coalesce before batching and never occupy window slots. Client
// disconnects don't abort a window (solve contexts derive from the
// server's base context, exactly as for solo solves); shutdown fate-
// shares the admission error across the group. A flush runs under
// its first member's deadline — timeouts are scheduling-only knobs,
// outside the family key, so this changes when an answer arrives,
// never what it is. Each member is stored under its own
// content address, indistinguishable from a solo solve's entry.

import (
	"sync"
	"time"

	"thermalscaffold/internal/telemetry"
)

// winItem is one request waiting in a window.
type winItem struct {
	miss
	done chan struct{}
	sv   *solved
	err  error
}

// winGroup is one open window: the members gathered so far and the
// timer that flushes them.
type winGroup struct {
	items []*winItem
	timer *time.Timer
}

// winBatcher groups steady misses by family key. One instance per
// server; nil when batching is off.
type winBatcher struct {
	window   time.Duration
	maxBatch int
	srv      *Server

	mu     sync.Mutex
	groups map[string]*winGroup
}

func newWinBatcher(window time.Duration, maxBatch int, srv *Server) *winBatcher {
	return &winBatcher{
		window:   window,
		maxBatch: maxBatch,
		srv:      srv,
		groups:   map[string]*winGroup{},
	}
}

// do parks the request in its family's window and blocks until the
// flush delivers its result. Called only by flight leaders holding no
// admission slot, so parked requests consume nothing bounded.
func (b *winBatcher) do(m miss) (*solved, error) {
	famKey := m.famKey
	it := &winItem{miss: m, done: make(chan struct{})}
	b.mu.Lock()
	g := b.groups[famKey]
	if g == nil {
		g = &winGroup{}
		b.groups[famKey] = g
		g.timer = time.AfterFunc(b.window, func() { b.flushTimed(famKey, g) })
	}
	g.items = append(g.items, it)
	if len(g.items) >= b.maxBatch {
		// Full window: seal and flush now, in this member's goroutine.
		// The timer may still fire, but flushTimed sees the group gone
		// and does nothing.
		delete(b.groups, famKey)
		g.timer.Stop()
		b.mu.Unlock()
		b.flush(g)
	} else {
		b.mu.Unlock()
	}
	<-it.done
	return it.sv, it.err
}

// flushTimed is the timer path: seal the group unless MaxBatch beat
// the timer to it.
func (b *winBatcher) flushTimed(famKey string, g *winGroup) {
	b.mu.Lock()
	if b.groups[famKey] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, famKey)
	b.mu.Unlock()
	b.flush(g)
}

// flush executes a sealed group as one group solve. Errors, including
// admission shed and drain, are fate-shared: the group solved as one
// unit, so it fails as one.
func (b *winBatcher) flush(g *winGroup) {
	s := b.srv
	s.ctr.batchFlushes.Add(1)
	s.ctr.batchOccupancy.Add(int64(len(g.items)))
	s.cfg.Telemetry.Add(telemetry.CounterBatchWindowFlushes, 1)
	s.cfg.Telemetry.Add(telemetry.CounterBatchWindowOccupancy, int64(len(g.items)))

	ms := make([]miss, len(g.items))
	for i, it := range g.items {
		ms[i] = it.miss
	}
	svs, err := s.solveGroup(ms)
	for i, it := range g.items {
		if err != nil {
			it.err = err
		} else {
			it.sv = svs[i]
		}
		close(it.done)
	}
}
