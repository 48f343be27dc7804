package serve

// Fidelity-ladder suite: the rc tier's routing, cache isolation from
// the full tier, certified-bound conformance at the service boundary,
// and bitwise determinism across solver worker counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"thermalscaffold/internal/specio"
)

func rcRequest(power float64) specio.EvalRequest {
	req := testRequest(power)
	req.Fidelity = specio.FidelityRC
	return req
}

// TestRCFidelityNoAlias: the same physical problem served at both
// fidelities gets two distinct content addresses and two distinct
// cache entries — an rc answer can never be served to a full-fidelity
// request or vice versa.
func TestRCFidelityNoAlias(t *testing.T) {
	full := testRequest(20)
	rc := rcRequest(20)

	// Hash level: only the fidelity tag differs, keys must not alias.
	evFull, err := specio.BuildEval(full)
	if err != nil {
		t.Fatal(err)
	}
	evRC, err := specio.BuildEval(rc)
	if err != nil {
		t.Fatal(err)
	}
	kFull, err := Key(evFull)
	if err != nil {
		t.Fatal(err)
	}
	kRC, err := Key(evRC)
	if err != nil {
		t.Fatal(err)
	}
	if kFull == kRC {
		t.Fatal("full and rc requests share a content address")
	}

	// Service level: interleave the tiers and check every reply came
	// from its own tier's entry.
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())

	code, fullResp := postEval(t, s, full)
	if code != 200 {
		t.Fatalf("full: HTTP %d: %+v", code, fullResp)
	}
	if fullResp.Fidelity != "" || float64(fullResp.BoundK) != 0 {
		t.Fatalf("full response carries rc fields: %+v", fullResp)
	}
	code, rcResp := postEval(t, s, rc)
	if code != 200 {
		t.Fatalf("rc: HTTP %d: %+v", code, rcResp)
	}
	if rcResp.Fidelity != specio.FidelityRC {
		t.Fatalf("rc response fidelity = %q", rcResp.Fidelity)
	}
	if rcResp.Cached {
		t.Fatal("rc answer claimed a cache hit — it aliased the full entry")
	}
	if rcResp.Key == fullResp.Key {
		t.Fatal("rc and full responses share a key")
	}
	if !(float64(rcResp.BoundK) >= 0) {
		t.Fatalf("rc bound %v not non-negative", rcResp.BoundK)
	}
	if rcResp.Iterations != 0 {
		t.Fatalf("rc iterations = %d, want 0 (direct solve)", rcResp.Iterations)
	}

	// Repeats hit their own tier's entry with identical numbers.
	code, fullAgain := postEval(t, s, full)
	if code != 200 || !fullAgain.Cached {
		t.Fatalf("full repeat not served from cache: HTTP %d %+v", code, fullAgain)
	}
	if err := sameNumbers(fullResp, fullAgain); err != nil {
		t.Fatalf("cached full repeat drifted: %v", err)
	}
	code, rcAgain := postEval(t, s, rc)
	if code != 200 || !rcAgain.Cached {
		t.Fatalf("rc repeat not served from cache: HTTP %d %+v", code, rcAgain)
	}
	if err := sameNumbers(rcResp, rcAgain); err != nil {
		t.Fatalf("cached rc repeat drifted: %v", err)
	}
	if rcAgain.BoundK != rcResp.BoundK || rcAgain.Fidelity != rcResp.Fidelity {
		t.Fatalf("cached rc repeat changed bound/fidelity: %+v vs %+v", rcAgain, rcResp)
	}
	if got := s.snapshot().Counters["rc_evals"]; got != 1 {
		t.Fatalf("rc_evals = %d, want 1 (repeat was cached)", got)
	}
}

// TestRCBoundConformanceServe: at the service boundary the rc peak
// must lie within its certified bound of the full tier's peak (with
// 1e-6 relative slack for the full solve's own iteration tolerance).
func TestRCBoundConformanceServe(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	for _, power := range []float64{5, 20, 60} {
		_, fullResp := postEval(t, s, testRequest(power))
		_, rcResp := postEval(t, s, rcRequest(power))
		d := math.Abs(float64(rcResp.PeakT) - float64(fullResp.PeakT))
		budget := float64(rcResp.BoundK) + 1e-6*float64(fullResp.PeakT)
		if d > budget {
			t.Fatalf("power %g: |peak_rc − peak_full| = %g exceeds certified bound %g",
				power, d, budget)
		}
	}
}

// TestRCServeEquivalence: rc answers are bitwise identical regardless
// of the server's SolverWorkers — the reduced solve is serial by
// construction, extending the worker-equivalence guarantee to the rc
// tier.
func TestRCServeEquivalence(t *testing.T) {
	var baseline specio.EvalResponse
	for i, workers := range []int{1, 8} {
		s := New(Config{SolverWorkers: workers})
		code, resp := postEval(t, s, rcRequest(33))
		s.Shutdown(context.Background())
		if code != 200 {
			t.Fatalf("workers=%d: HTTP %d: %+v", workers, code, resp)
		}
		if i == 0 {
			baseline = resp
			continue
		}
		if err := sameNumbers(baseline, resp); err != nil {
			t.Fatalf("rc answer differs between workers 1 and %d: %v", workers, err)
		}
		if resp.BoundK != baseline.BoundK {
			t.Fatalf("rc bound differs between workers 1 and %d: %v vs %v",
				workers, baseline.BoundK, resp.BoundK)
		}
	}
}

// TestRCQueryParam: ?fidelity=rc selects the tier without a body
// field, overrides the body field, and bogus values 400.
func TestRCQueryParam(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	raw, err := json.Marshal(testRequest(20))
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval?fidelity=rc", bytes.NewReader(raw)))
	if rec.Code != 200 {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var resp specio.EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fidelity != specio.FidelityRC {
		t.Fatalf("?fidelity=rc answered fidelity %q", resp.Fidelity)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval?fidelity=quantum", bytes.NewReader(raw)))
	if rec.Code != 400 {
		t.Fatalf("bogus fidelity: HTTP %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "fidelity") {
		t.Fatalf("bogus fidelity error not descriptive: %s", rec.Body.String())
	}
}

// TestRCBatchRejected: the batch endpoint is full-fidelity only.
func TestRCBatchRejected(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	batch := specio.EvalBatchRequest{
		Base:  rcRequest(20),
		Items: []specio.BatchItem{{}},
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evalbatch", bytes.NewReader(raw)))
	if rec.Code != 400 {
		t.Fatalf("rc batch: HTTP %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestRCModelCacheReuse: two rc requests in one family
// (same geometry, different power) must reuse one reduced model —
// and still answer with different numbers.
func TestRCModelCacheReuse(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	_, a := postEval(t, s, rcRequest(20))
	if got := s.caches.roms.Len(); got != 1 {
		t.Fatalf("rom cache has %d models after first eval, want 1", got)
	}
	_, b := postEval(t, s, rcRequest(40))
	if got := s.caches.roms.Len(); got != 1 {
		t.Fatalf("rom cache has %d models after family repeat, want 1 (model reused)", got)
	}
	if a.Key == b.Key || a.PeakT == b.PeakT {
		t.Fatalf("different power maps answered identically: %+v vs %+v", a, b)
	}
	// A different geometry builds a second model.
	req := rcRequest(20)
	req.Stack.Tiers = 3
	postEval(t, s, req)
	if got := s.caches.roms.Len(); got != 2 {
		t.Fatalf("rom cache has %d models after geometry change, want 2", got)
	}
}
