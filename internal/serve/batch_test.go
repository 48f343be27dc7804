package serve

// /v1/evalbatch suite: per-item bitwise equivalence with direct cold
// solves (Workers 1 and 8), cache hits and intra-batch dedup, cold
// arrival-order independence, and envelope validation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"thermalscaffold/internal/specio"
)

// postBatch drives the batch handler directly and decodes the
// response.
func postBatch(t *testing.T, s *Server, req specio.EvalBatchRequest) (int, specio.EvalBatchResponse) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evalbatch", bytes.NewReader(raw)))
	var resp specio.EvalBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not valid JSON (%v): %s", err, rec.Body.String())
	}
	return rec.Code, resp
}

func fptr(v float64) *float64 { return &v }

// testBatch builds a three-scenario batch over the fast test stack:
// the base power plus two uniform-power overrides.
func testBatch() (specio.EvalBatchRequest, []specio.EvalRequest) {
	breq := specio.EvalBatchRequest{
		Base: testRequest(30),
		Items: []specio.BatchItem{
			{},
			{UniformPower: fptr(45)},
			{UniformPower: fptr(60)},
		},
	}
	derived := []specio.EvalRequest{testRequest(30), testRequest(45), testRequest(60)}
	return breq, derived
}

// TestServeBatchEquivalence: every batch item answers with numbers
// bitwise identical to a direct cold solve of the derived per-item
// request, at SolverWorkers 1 and 8.
func TestServeBatchEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s := New(Config{SolverWorkers: workers})
			defer s.Shutdown(context.Background())
			breq, derived := testBatch()
			code, resp := postBatch(t, s, breq)
			if code != http.StatusOK {
				t.Fatalf("batch: HTTP %d (%s)", code, resp.Error)
			}
			if resp.Mode != "steady" || len(resp.Items) != len(derived) {
				t.Fatalf("mode=%q items=%d, want steady/%d", resp.Mode, len(resp.Items), len(derived))
			}
			for i, d := range derived {
				want := directSolve(t, d, workers)
				if err := sameNumbers(resp.Items[i], want); err != nil {
					t.Errorf("item %d differs from direct solve: %v", i, err)
				}
				if resp.Items[i].Cached || resp.Items[i].Coalesced {
					t.Errorf("item %d on a cold cache flagged cached=%v coalesced=%v",
						i, resp.Items[i].Cached, resp.Items[i].Coalesced)
				}
			}
		})
	}
}

// TestServeBatchCacheAndDedup: items already in the cache are
// answered from it, intra-batch duplicates share one solve and are
// flagged coalesced, and the batch populates the cache for later
// /v1/eval hits.
func TestServeBatchCacheAndDedup(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())

	// Prime the cache with the 45 W/cm² scenario via /v1/eval.
	if code, r := postEval(t, s, testRequest(45)); code != http.StatusOK {
		t.Fatalf("prime: HTTP %d (%s)", code, r.Error)
	}
	missesBefore := s.ctr.misses.Load()

	breq := specio.EvalBatchRequest{
		Base: testRequest(30),
		Items: []specio.BatchItem{
			{UniformPower: fptr(45)}, // cache hit
			{UniformPower: fptr(60)}, // miss
			{UniformPower: fptr(60)}, // intra-batch duplicate of item 1
		},
	}
	code, resp := postBatch(t, s, breq)
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d (%s)", code, resp.Error)
	}
	if !resp.Items[0].Cached {
		t.Error("primed item not served from cache")
	}
	if resp.Items[1].Cached || resp.Items[1].Coalesced {
		t.Errorf("miss item flagged cached=%v coalesced=%v", resp.Items[1].Cached, resp.Items[1].Coalesced)
	}
	if !resp.Items[2].Coalesced {
		t.Error("duplicate item not flagged coalesced")
	}
	if err := sameNumbers(resp.Items[1], resp.Items[2]); err != nil {
		t.Errorf("duplicate items differ: %v", err)
	}
	if got := s.ctr.misses.Load() - missesBefore; got != 1 {
		t.Errorf("batch recorded %d misses, want 1 (one unique uncached item)", got)
	}

	// The batch's solve must be indistinguishable from one /v1/eval
	// would have produced: a follow-up single request hits the cache
	// with the same numbers.
	code, single := postEval(t, s, testRequest(60))
	if code != http.StatusOK || !single.Cached {
		t.Fatalf("follow-up single request: HTTP %d cached=%v", code, single.Cached)
	}
	if err := sameNumbers(single, resp.Items[1]); err != nil {
		t.Errorf("single cache hit differs from batch solve: %v", err)
	}
}

// TestServeBatchColdIndependence: batch answers do not depend on what
// happened to be solved (and family-cached) earlier — a batch item
// solved after a family neighbor equals a direct cold solve.
func TestServeBatchColdIndependence(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())

	// Solve a neighboring power map of the same family first.
	if code, r := postEval(t, s, testRequest(30)); code != http.StatusOK {
		t.Fatalf("seed: HTTP %d (%s)", code, r.Error)
	}

	breq := specio.EvalBatchRequest{
		Base:  testRequest(30),
		Items: []specio.BatchItem{{UniformPower: fptr(45)}},
	}
	code, resp := postBatch(t, s, breq)
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d (%s)", code, resp.Error)
	}
	want := directSolve(t, testRequest(45), 1) // cold direct solve
	if err := sameNumbers(resp.Items[0], want); err != nil {
		t.Errorf("batch item (family neighbor solved first) differs from cold solve: %v", err)
	}
}

// TestServeBatchValidation covers the envelope errors: empty batch,
// oversized batch, transient base, and per-item failures carrying the
// item index.
func TestServeBatchValidation(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())

	post := func(body string) (int, specio.EvalBatchResponse) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evalbatch", bytes.NewReader([]byte(body))))
		var resp specio.EvalBatchResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		return rec.Code, resp
	}

	if code, _ := post(`{"base":{},"items":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", code)
	}
	if code, _ := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d, want 400", code)
	}

	big := specio.EvalBatchRequest{Base: testRequest(30), Items: make([]specio.BatchItem, specio.EvalMaxBatch+1)}
	if code, resp := postBatch(t, s, big); code != http.StatusBadRequest {
		t.Errorf("oversized batch: HTTP %d (%s), want 400", code, resp.Error)
	}

	trans := specio.EvalBatchRequest{Base: testRequest(30), Items: []specio.BatchItem{{}}}
	trans.Base.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 3}
	if code, resp := postBatch(t, s, trans); code != http.StatusBadRequest {
		t.Errorf("transient base: HTTP %d (%s), want 400", code, resp.Error)
	}

	badItem := specio.EvalBatchRequest{
		Base:  testRequest(30),
		Items: []specio.BatchItem{{}, {UniformPower: fptr(-5)}},
	}
	code, resp := postBatch(t, s, badItem)
	if code != http.StatusBadRequest {
		t.Fatalf("negative-power item: HTTP %d, want 400", code)
	}
	if want := "item 1"; resp.Error == "" || !bytes.Contains([]byte(resp.Error), []byte(want)) {
		t.Errorf("error %q does not name the failing item (%q)", resp.Error, want)
	}
}
