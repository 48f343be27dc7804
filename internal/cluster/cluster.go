package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// NodeSpec names one ring member: its stable ring ID and the base URL
// its peer endpoints are served on.
type NodeSpec struct {
	ID  string
	URL string
}

// Config describes one node's view of the cluster. The zero values of
// the tunables are production-shaped defaults.
type Config struct {
	// Self is this node's ring ID; it must appear in Nodes.
	Self string
	// Nodes is the full static membership, including Self. (Membership
	// is configured, not discovered; health probing decides which
	// configured members are currently in the ring.)
	Nodes []NodeSpec
	// Vnodes is the virtual-node count per member (0 → DefaultVnodes).
	Vnodes int
	// FetchTimeout bounds one whole peer lookup, hedge included
	// (0 → 250ms). A fetch that cannot beat it degrades to a local
	// solve — a slow peer costs latency, never availability.
	FetchTimeout time.Duration
	// HedgeDelay is how long the primary fetch may stay silent before
	// a second identical request is fired; first answer wins
	// (0 → 50ms).
	HedgeDelay time.Duration
	// ProbeInterval is the health-probe cadence (0 → 1s; < 0 disables
	// the background prober — tests drive ProbeOnce directly).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe failures that mark a
	// member down and shrink the ring (0 → 2); one success re-adds it.
	FailThreshold int
	// Transport is the HTTP transport for all peer traffic. Injectable
	// so the fault tests can kill, partition, and delay peers
	// mid-request (nil → http.DefaultTransport).
	Transport http.RoundTripper
	// Telemetry, when non-nil, mirrors the peer counters.
	Telemetry *telemetry.Collector
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 250 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	return c
}

// Cluster is one node's cluster client: it implements the service's
// PeerCache seam (serve.Config.Peers). Create with New, stop with
// Close.
type Cluster struct {
	cfg    Config
	self   string
	urls   map[string]string // node ID → base URL
	client *http.Client

	ring atomic.Pointer[Ring]

	mu    sync.Mutex
	alive map[string]bool
	fails map[string]int

	// fillCtx cancels in-flight background fills on Close;
	// fills tracks them so Sync and Close can wait.
	fillCtx    context.Context
	cancelFill context.CancelFunc
	fills      sync.WaitGroup
	fillSem    chan struct{}

	stopProbe chan struct{}
	probeDone chan struct{}

	hits, misses, hedges, fallbacks, fillCount atomic.Int64
}

// New validates the membership and returns a running cluster client.
// All configured members start alive; the health prober (unless
// disabled) demotes unreachable ones from the ring and re-adds them
// on recovery.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self ID")
	}
	if len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, got %d", len(cfg.Nodes))
	}
	urls := make(map[string]string, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node with empty ID")
		}
		if _, dup := urls[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q has bad URL %q", n.ID, n.URL)
		}
		urls[n.ID] = n.URL
	}
	if _, ok := urls[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self ID %q not among the configured nodes", cfg.Self)
	}
	fillCtx, cancelFill := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:        cfg,
		self:       cfg.Self,
		urls:       urls,
		client:     &http.Client{Transport: cfg.Transport},
		alive:      make(map[string]bool, len(urls)),
		fails:      make(map[string]int, len(urls)),
		fillCtx:    fillCtx,
		cancelFill: cancelFill,
		fillSem:    make(chan struct{}, 4),
		stopProbe:  make(chan struct{}),
		probeDone:  make(chan struct{}),
	}
	for id := range urls {
		c.alive[id] = true
	}
	c.rebuildLocked()
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.probeDone)
	}
	return c, nil
}

// Close stops the health prober, cancels and waits for in-flight
// background fills, and releases idle connections.
func (c *Cluster) Close() {
	select {
	case <-c.stopProbe:
	default:
		close(c.stopProbe)
	}
	<-c.probeDone
	c.cancelFill()
	c.fills.Wait()
	c.client.CloseIdleConnections()
}

// Sync waits for all in-flight background fills to land — the
// conformance and benchmark harnesses call it between phases so "fill
// then fetch elsewhere" is deterministic, not a race.
func (c *Cluster) Sync() { c.fills.Wait() }

// Ring returns the current ring snapshot (immutable).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Owner returns the current owner of a content address.
func (c *Cluster) Owner(key string) string { return c.ring.Load().Owner(key) }

// Self returns this node's ring ID.
func (c *Cluster) Self() string { return c.self }

// Alive returns the currently-alive member IDs (sorted).
func (c *Cluster) Alive() []string { return c.ring.Load().Members() }

// rebuildLocked recomputes the ring from the alive set. Callers hold
// c.mu (or are in New, before the cluster escapes).
func (c *Cluster) rebuildLocked() {
	ids := make([]string, 0, len(c.alive))
	for id, up := range c.alive {
		if up {
			ids = append(ids, id)
		}
	}
	c.ring.Store(NewRing(ids, c.cfg.Vnodes))
}

// ---------------------------------------------------------------- fetch

// fetchResult is one GET attempt's outcome.
type fetchResult struct {
	e    *specio.PeerCacheEntry
	miss bool // authoritative 404 from the owner
	err  error
}

// Fetch implements the hedged peer lookup: ask key's ring owner, fire
// one hedge if the primary stays silent past HedgeDelay, give up at
// FetchTimeout. ok=false on self-ownership, a clean 404, or any
// failure — the caller's local solve is always a correct answer.
func (c *Cluster) Fetch(ctx context.Context, key string) (*specio.PeerCacheEntry, bool) {
	owner := c.ring.Load().Owner(key)
	if owner == "" || owner == c.self {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()

	results := make(chan fetchResult, 2) // buffered: laggards never block
	attempt := func() { results <- c.getEntry(ctx, owner, key) }
	go attempt()
	launched := 1
	hedge := time.NewTimer(c.cfg.HedgeDelay)
	defer hedge.Stop()

	for done := 0; done < launched; {
		select {
		case r := <-results:
			done++
			switch {
			case r.err == nil && !r.miss:
				c.hits.Add(1)
				c.cfg.Telemetry.Add(telemetry.CounterPeerHits, 1)
				return r.e, true
			case r.miss:
				// The owner answered: the key is not cached anywhere.
				c.misses.Add(1)
				c.cfg.Telemetry.Add(telemetry.CounterPeerMisses, 1)
				return nil, false
			}
			// r.err != nil: wait for the other attempt, if any.
		case <-hedge.C:
			if launched == 1 {
				launched++
				c.hedges.Add(1)
				c.cfg.Telemetry.Add(telemetry.CounterPeerHedges, 1)
				go attempt()
			}
		case <-ctx.Done():
			c.fallbacks.Add(1)
			c.cfg.Telemetry.Add(telemetry.CounterPeerFallbacks, 1)
			return nil, false
		}
	}
	// Every launched attempt failed before the deadline.
	c.fallbacks.Add(1)
	c.cfg.Telemetry.Add(telemetry.CounterPeerFallbacks, 1)
	return nil, false
}

// getEntry performs one GET /v1/peer/cache/{key} against a node.
func (c *Cluster) getEntry(ctx context.Context, node, key string) fetchResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[node]+"/v1/peer/cache/"+key, nil)
	if err != nil {
		return fetchResult{err: err}
	}
	res, err := c.client.Do(req)
	if err != nil {
		return fetchResult{err: err}
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusNotFound {
		return fetchResult{miss: true}
	}
	if res.StatusCode != http.StatusOK {
		return fetchResult{err: fmt.Errorf("cluster: peer %s answered HTTP %d", node, res.StatusCode)}
	}
	body, err := io.ReadAll(io.LimitReader(res.Body, maxEntryBody+1))
	if err != nil {
		return fetchResult{err: err}
	}
	if len(body) > maxEntryBody {
		return fetchResult{err: fmt.Errorf("cluster: peer entry exceeds %d bytes", maxEntryBody)}
	}
	e, err := specio.ParsePeerEntry(body, key)
	if err != nil {
		return fetchResult{err: err}
	}
	return fetchResult{e: e}
}

// maxEntryBody mirrors the service's request-body bound.
const maxEntryBody = 16 << 20

// ----------------------------------------------------------------- fill

// Fill offers a finished solve to its ring owner — asynchronously
// and best-effort: a dead owner costs the cluster a cache fill, never
// a response. Entries this node owns stay local.
func (c *Cluster) Fill(e *specio.PeerCacheEntry) {
	owner := c.ring.Load().Owner(e.Key)
	if owner == "" || owner == c.self {
		return
	}
	c.fills.Add(1)
	go func() {
		defer c.fills.Done()
		select {
		case c.fillSem <- struct{}{}:
			defer func() { <-c.fillSem }()
		case <-c.fillCtx.Done():
			return
		}
		c.fillCount.Add(1)
		c.cfg.Telemetry.Add(telemetry.CounterPeerFills, 1)
		c.putEntry(owner, e)
	}()
}

// putEntry performs one PUT /v1/peer/cache/{key}; errors are
// best-effort-ignored (the fill counter still counts the attempt, so
// the fault tests can see fills happening into a partition).
func (c *Cluster) putEntry(node string, e *specio.PeerCacheEntry) {
	raw, err := specio.MarshalPeerEntry(e)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(c.fillCtx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.urls[node]+"/v1/peer/cache/"+e.Key, bytes.NewReader(raw))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
}

// --------------------------------------------------------------- health

// probeLoop drives ProbeOnce on the configured cadence until Close.
func (c *Cluster) probeLoop() {
	defer close(c.probeDone)
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.ProbeOnce(c.fillCtx)
		case <-c.stopProbe:
			return
		}
	}
}

// ProbeOnce health-checks every configured peer once and rebalances
// the ring on any membership change: FailThreshold consecutive
// failures demote a member (its keys remap minimally onto the
// survivors), one success re-adds it (the ring re-heals to its
// original ownership, because a ring is a pure function of its
// membership set). Exported so tests drive health transitions
// deterministically.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	type verdict struct {
		id string
		ok bool
	}
	verdicts := make([]verdict, 0, len(c.urls))
	for id := range c.urls {
		if id == c.self {
			continue
		}
		verdicts = append(verdicts, verdict{id: id, ok: c.probe(ctx, id)})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for _, v := range verdicts {
		if v.ok {
			c.fails[v.id] = 0
			if !c.alive[v.id] {
				c.alive[v.id] = true
				changed = true
			}
			continue
		}
		c.fails[v.id]++
		if c.alive[v.id] && c.fails[v.id] >= c.cfg.FailThreshold {
			c.alive[v.id] = false
			changed = true
		}
	}
	if changed {
		c.rebuildLocked()
	}
}

// probe performs one GET /healthz.
func (c *Cluster) probe(ctx context.Context, id string) bool {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[id]+"/healthz", nil)
	if err != nil {
		return false
	}
	res, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	return res.StatusCode == http.StatusOK
}

// ---------------------------------------------------------------- stats

// Stats snapshots the peer counters (merged into the service's
// /metrics in cluster mode).
func (c *Cluster) Stats() map[string]int64 {
	return map[string]int64{
		telemetry.CounterPeerHits:      c.hits.Load(),
		telemetry.CounterPeerMisses:    c.misses.Load(),
		telemetry.CounterPeerHedges:    c.hedges.Load(),
		telemetry.CounterPeerFallbacks: c.fallbacks.Load(),
		telemetry.CounterPeerFills:     c.fillCount.Load(),
	}
}
