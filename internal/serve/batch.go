package serve

// POST /v1/evalbatch: K power scenarios against one stack, answered
// with the same pipeline as /v1/eval — shared normalize/key path,
// per-item cache hits, intra-batch deduplication — and one group
// solve (solveGroup, shared with the batching window) for whatever
// remains. The batch occupies a single admission slot: it is one
// bounded unit of work, not K queue entries.
//
// Determinism: every item's numbers are bitwise identical to a
// /v1/eval solve of the same derived request, independent of arrival
// order and of which siblings happen to be cached. Cached items reuse
// the stored entry verbatim, exactly as /v1/eval does.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// batchItem tracks one item through the pipeline. Its ev stays nil
// while only the key memo has seen it.
type batchItem struct {
	miss
	sv     *solved
	cached bool
	dupOf  int // index of the first item with the same key, else -1
}

func (s *Server) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()

	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalBatchResponse{Error: err.Error()})
		return
	}
	if len(body) > maxRequestBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, specio.EvalBatchResponse{Error: "request body exceeds 16 MiB"})
		return
	}
	breq, err := specio.ParseEvalBatch(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalBatchResponse{Error: err.Error()})
		return
	}
	derived, err := breq.Expand()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, specio.EvalBatchResponse{Error: err.Error()})
		return
	}

	// Resolve every item through the shared normalize/key path and
	// dedup within the batch: items with equal keys are the same
	// physical problem and share one answer.
	items := make([]batchItem, len(derived))
	norms := make([]specio.EvalRequest, len(derived))
	seen := map[string]int{}
	for i, rq := range derived {
		norm, nerr := rq.Normalize()
		if nerr != nil {
			writeJSON(w, http.StatusBadRequest, specio.EvalBatchResponse{Error: itemErr(i, nerr)})
			return
		}
		norms[i] = norm
		ev, key, famKey, status, rerr := s.resolveKeys(norm)
		if rerr != nil {
			writeJSON(w, status, specio.EvalBatchResponse{Error: itemErr(i, rerr)})
			return
		}
		items[i] = batchItem{miss: miss{ev: ev, key: key, famKey: famKey}, dupOf: -1}
		if j, ok := seen[key]; ok {
			items[i].dupOf = j
		} else {
			seen[key] = i
		}
	}

	// Per-item cache hits (local first, then the key's ring owner in
	// cluster mode), then one group solve for the remaining unique
	// misses.
	var missIdx []int
	var ms []miss
	for i := range items {
		it := &items[i]
		if it.dupOf >= 0 {
			continue
		}
		if hit, ok := s.lookup(it.key); ok {
			it.sv, it.cached = hit, true
			s.ctr.hits.Add(1)
			s.cfg.Telemetry.Add(telemetry.CounterCacheHits, 1)
			continue
		}
		if it.ev == nil {
			// Memoized key but evicted result: assemble for the solve.
			ev, berr := specio.BuildEval(norms[i])
			if berr != nil {
				writeJSON(w, http.StatusBadRequest, specio.EvalBatchResponse{Error: itemErr(i, berr)})
				return
			}
			it.ev = ev
		}
		missIdx = append(missIdx, i)
		ms = append(ms, it.miss)
	}
	if len(ms) > 0 {
		solvedList, serr := s.solveGroup(ms)
		switch {
		case serr == nil:
		case errors.Is(serr, errBusy):
			s.reject(w, http.StatusServiceUnavailable, "solve queue is full, retry later")
			return
		case errors.Is(serr, errDraining):
			s.reject(w, http.StatusServiceUnavailable, "server is draining")
			return
		default:
			s.ctr.failures.Add(1)
			status := http.StatusInternalServerError
			if errors.Is(serr, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			} else if errors.Is(serr, context.Canceled) {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, specio.EvalBatchResponse{Mode: "steady", Error: serr.Error()})
			return
		}
		for bi, i := range missIdx {
			items[i].sv = solvedList[bi]
			s.ctr.misses.Add(1)
			s.cfg.Telemetry.Add(telemetry.CounterCacheMisses, 1)
		}
	}

	resp := specio.EvalBatchResponse{Mode: "steady", Items: make([]specio.EvalResponse, len(items))}
	wall := time.Since(start).Nanoseconds()
	for i := range items {
		lead, coalesced := &items[i], false
		if items[i].dupOf >= 0 {
			lead, coalesced = &items[items[i].dupOf], true
			s.ctr.coalesced.Add(1)
			s.cfg.Telemetry.Add(telemetry.CounterCoalesced, 1)
		}
		ir := lead.sv.resp
		ir.Cached = lead.cached
		ir.Coalesced = coalesced
		ir.WallNS = wall
		resp.Items[i] = ir
	}
	s.lat.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// itemErr prefixes an error with the failing item's index.
func itemErr(i int, err error) string {
	return fmt.Sprintf("item %d: %v", i, err)
}
