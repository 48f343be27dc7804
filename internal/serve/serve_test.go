package serve

// Service-level suite: cache/coalescing equivalence (bitwise, at
// Workers 1 and 8), backpressure, drain, per-request deadlines, and
// the -race stress test with random client cancellations and
// goroutine-leak checks (run by `make serve-stress`).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// testStack is a small, fast stack spec (8 z-layers at the default
// tiers=2): a few milliseconds per cold solve.
func testStack(tiers, nx int, power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: tiers, NX: nx, NY: nx,
		UniformPower: power,
		BEOL:         "scaffolded",
		PillarCover:  0.1,
		Sink:         "twophase",
	}
}

func testRequest(power float64) specio.EvalRequest {
	return specio.EvalRequest{Stack: testStack(2, 8, power)}
}

// postEval drives the handler directly (no network) and decodes the
// response.
func postEval(t *testing.T, s *Server, req specio.EvalRequest) (int, specio.EvalResponse) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
	var resp specio.EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not valid JSON (%v): %s", err, rec.Body.String())
	}
	return rec.Code, resp
}

// directSolve reproduces the server's cold-solve path locally:
// normalized request → SolveSteady (or a transient run) with the same
// options → stats.
func directSolve(t *testing.T, req specio.EvalRequest, workers int) specio.EvalResponse {
	t.Helper()
	ev, err := specio.BuildEval(req)
	if err != nil {
		t.Fatal(err)
	}
	opts := solver.Options{
		Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond, Workers: workers,
	}
	var (
		field []float64
		iters int
		resid float64
	)
	if ev.Steady() {
		res, err := solver.SolveSteady(ev.Problem, opts)
		if err != nil {
			t.Fatal(err)
		}
		field, iters, resid = res.T, res.Iterations, res.Residual
	} else {
		tr, err := solver.NewTransient(ev.Problem, ev.InitialField(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if field, err = tr.Run(req.Transient.Steps, req.Transient.DtS); err != nil {
			t.Fatal(err)
		}
		iters, resid = req.Transient.Steps, math.NaN()
	}
	peak, mean := ev.FieldStats(field)
	key, err := Key(ev)
	if err != nil {
		t.Fatal(err)
	}
	return specio.EvalResponse{
		Key: key, Mode: ev.Mode(),
		PeakT: telemetry.Float(peak), MeanT: telemetry.Float(mean),
		Tiers: ev.TierProfile(field), Iterations: iters,
		Residual: telemetry.Float(resid),
	}
}

// sameNumbers compares every numeric field of two responses for
// bitwise equality (float64 == is bitwise here: the values went
// through JSON, which round-trips float64 exactly). The residual is
// compared by its bits, so a transient's null (NaN) residual matches
// itself.
func sameNumbers(a, b specio.EvalResponse) error {
	if a.Key != b.Key {
		return fmt.Errorf("key %s vs %s", a.Key, b.Key)
	}
	if a.PeakT != b.PeakT || a.MeanT != b.MeanT {
		return fmt.Errorf("peak/mean %v/%v vs %v/%v", a.PeakT, a.MeanT, b.PeakT, b.MeanT)
	}
	if a.Iterations != b.Iterations || math.Float64bits(float64(a.Residual)) != math.Float64bits(float64(b.Residual)) {
		return fmt.Errorf("iterations/residual %d/%v vs %d/%v", a.Iterations, a.Residual, b.Iterations, b.Residual)
	}
	if len(a.Tiers) != len(b.Tiers) {
		return fmt.Errorf("tier counts %d vs %d", len(a.Tiers), len(b.Tiers))
	}
	for i := range a.Tiers {
		if a.Tiers[i] != b.Tiers[i] {
			return fmt.Errorf("tier %d: %+v vs %+v", i, a.Tiers[i], b.Tiers[i])
		}
	}
	return nil
}

// TestServeEquivalence pins the acceptance invariant: a served cold
// solve, its cached repeat, and a direct in-process solve with the
// same options produce bitwise-identical numbers — at Workers 1 and 8,
// for a steady and a transient request.
func TestServeEquivalence(t *testing.T) {
	transient := testRequest(35)
	transient.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 3}
	inputs := []struct {
		name string
		req  specio.EvalRequest
	}{
		{"steady", testRequest(30)},
		{"transient", transient},
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s := New(Config{SolverWorkers: workers})
			defer s.Shutdown(context.Background())
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					want := directSolve(t, in.req, workers)

					code, cold := postEval(t, s, in.req)
					if code != http.StatusOK {
						t.Fatalf("cold solve: HTTP %d (%s)", code, cold.Error)
					}
					if cold.Cached || cold.Coalesced {
						t.Fatalf("first request flagged cached=%v coalesced=%v", cold.Cached, cold.Coalesced)
					}
					if err := sameNumbers(cold, want); err != nil {
						t.Fatalf("served cold solve differs from direct solve: %v", err)
					}

					code, hot := postEval(t, s, in.req)
					if code != http.StatusOK || !hot.Cached {
						t.Fatalf("repeat not served from cache: HTTP %d cached=%v", code, hot.Cached)
					}
					if err := sameNumbers(hot, want); err != nil {
						t.Fatalf("cached response differs from cold solve: %v", err)
					}
				})
			}
		})
	}
}

// TestServeCoalescing: concurrent identical requests on a cold cache
// run exactly one solve, and every response carries bitwise-identical
// numbers.
func TestServeCoalescing(t *testing.T) {
	tel := telemetry.New()
	s := New(Config{SolverWorkers: 1, Parallel: 1, Telemetry: tel})
	defer s.Shutdown(context.Background())
	// Slow enough that most duplicates arrive in flight.
	req := testRequest(30)
	req.Solver.Tol = 1e-12

	const clients = 12
	responses := make([]specio.EvalResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, resp := postEval(t, s, req)
			if code != http.StatusOK {
				t.Errorf("client %d: HTTP %d (%s)", i, code, resp.Error)
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < clients; i++ {
		if err := sameNumbers(responses[0], responses[i]); err != nil {
			t.Fatalf("coalesced/cached response %d differs from response 0: %v", i, err)
		}
	}
	if got := tel.Counter(telemetry.CounterSolves); got != 1 {
		t.Fatalf("%d solver runs for %d identical concurrent requests, want exactly 1", got, clients)
	}
	snap := s.snapshot()
	c := snap.Counters
	total := c[telemetry.CounterCacheHits] + c[telemetry.CounterCacheMisses] + c[telemetry.CounterCoalesced]
	if total != clients || c[telemetry.CounterCacheMisses] != 1 {
		t.Fatalf("counter accounting hits+misses+coalesced = %d (misses %d), want %d total with 1 miss",
			total, c[telemetry.CounterCacheMisses], clients)
	}
}

// wallNSRE matches the only nondeterministic bytes of a response: its
// wall-clock field.
var wallNSRE = regexp.MustCompile(`"wall_ns":\s*-?\d+`)

// TestServeArrivalOrderIndependence pins the default-config contract:
// every response is a pure function of its request. Two fresh servers
// see two same-family requests (same stack, different power map) in
// opposite orders; each request's response body, wall_ns zeroed, must
// match byte for byte whichever sibling was solved first.
func TestServeArrivalOrderIndependence(t *testing.T) {
	b := testRequest(30)
	b.PowerBlocks = []specio.PowerBlock{{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: 15}}
	reqs := make([][]byte, 2)
	for i, req := range []specio.EvalRequest{testRequest(30), b} {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = raw
	}
	var bodies [2][2][]byte // [arrival order][request]
	for order, seq := range [][]int{{0, 1}, {1, 0}} {
		s := New(Config{SolverWorkers: 1})
		for _, i := range seq {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(reqs[i])))
			if rec.Code != http.StatusOK {
				t.Fatalf("order %v, request %d: HTTP %d: %s", seq, i, rec.Code, rec.Body.String())
			}
			bodies[order][i] = wallNSRE.ReplaceAll(rec.Body.Bytes(), []byte(`"wall_ns": 0`))
		}
		s.Shutdown(context.Background())
	}
	for i := range reqs {
		if !bytes.Equal(bodies[0][i], bodies[1][i]) {
			t.Errorf("request %d answered differently by arrival order:\n%s\nvs\n%s", i, bodies[0][i], bodies[1][i])
		}
	}
}

// TestServeTransient: a transient request integrates and reports the
// step count; its residual is the null-marshaling NaN.
func TestServeTransient(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	req := testRequest(30)
	req.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 3}
	code, resp := postEval(t, s, req)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d (%s)", code, resp.Error)
	}
	if resp.Mode != "transient" || resp.Iterations != 3 {
		t.Fatalf("mode=%s iterations=%d, want transient/3", resp.Mode, resp.Iterations)
	}
	if !math.IsNaN(float64(resp.Residual)) {
		t.Fatalf("transient residual = %v, want null (NaN)", resp.Residual)
	}
	amb := 373.15 // two-phase sink ambient, 100 °C
	if float64(resp.PeakT) <= amb {
		t.Fatalf("after 3 steps peak %v has not risen above ambient %v", resp.PeakT, amb)
	}
	steady := testRequest(30)
	if _, sresp := postEval(t, s, steady); float64(sresp.PeakT) <= float64(resp.PeakT) {
		t.Fatalf("steady peak %v not above 3-step transient peak %v", sresp.PeakT, resp.PeakT)
	}
}

// TestServeBackpressure: with Parallel=1 and no queue, a second
// distinct request is shed with 503 + Retry-After while the first
// occupies the only slot. The test holds the solve slot itself so the
// saturation window is deterministic, not a race against a fast solve.
func TestServeBackpressure(t *testing.T) {
	s := New(Config{SolverWorkers: 1, Parallel: 1, QueueDepth: -1})
	defer s.Shutdown(context.Background())
	g := s.gate
	g.sem <- struct{}{} // occupy the only solve slot

	waiting, err := json.Marshal(testRequest(30))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(waiting)))
		done <- rec.Code
	}()
	// The admitted request parks on the semaphore: pending settles at 1.
	waitFor(t, func() bool { return s.gate.Pending() == 1 })

	raw, _ := json.Marshal(testRequest(55))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered HTTP %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if s.snapshot().Counters[telemetry.CounterRejected] != 1 {
		t.Fatal("rejection not counted")
	}

	<-g.sem // release the slot; the parked request solves normally
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request finished with HTTP %d after the slot freed", code)
	}
}

// TestServeDrain: after Shutdown the service answers 503 on eval and
// healthz, and in-flight work completed first.
func TestServeDrain(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	if code, _ := postEval(t, s, testRequest(30)); code != http.StatusOK {
		t.Fatalf("pre-drain solve: HTTP %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean shutdown errored: %v", err)
	}
	if code, resp := postEval(t, s, testRequest(31)); code != http.StatusServiceUnavailable || !strings.Contains(resp.Error, "draining") {
		t.Fatalf("post-drain eval: HTTP %d %q, want 503 draining", code, resp.Error)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: HTTP %d, want 503", rec.Code)
	}
}

// TestServeDeadline: a request-level timeout cancels its own solve;
// the client sees 504.
func TestServeDeadline(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	// Large enough that one solve cannot finish inside the deadline
	// (the solver checks its context every iteration).
	req := testRequest(30)
	req.Stack.Tiers = 8
	req.Stack.NX, req.Stack.NY = 64, 64
	req.Solver.Tol = 1e-14
	req.Solver.TimeoutMS = 1
	code, resp := postEval(t, s, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d (%s), want 504", code, resp.Error)
	}
	if !strings.Contains(resp.Error, "cancelled") {
		t.Fatalf("error does not name cancellation: %q", resp.Error)
	}
}

// TestServeBadRequests: malformed input is a 400 with an explanation,
// never a solve.
func TestServeBadRequests(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	post := func(body string) (int, specio.EvalResponse) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body)))
		var resp specio.EvalResponse
		json.Unmarshal(rec.Body.Bytes(), &resp)
		return rec.Code, resp
	}
	cases := map[string]string{
		"not json":      `{"stack":`,
		"unknown field": `{"stack":{"tiers":2,"nx":4,"ny":4,"die_w_um":100,"die_h_um":100},"typo_field":1}`,
		"bad block":     `{"stack":{"tiers":2,"nx":4,"ny":4,"die_w_um":100,"die_h_um":100},"power_blocks":[{"x0":0,"y0":0,"x1":9,"y1":2,"w_per_cm2":5}]}`,
		"bad beol":      `{"stack":{"tiers":2,"nx":4,"ny":4,"die_w_um":100,"die_h_um":100,"beol":"adamantium"}}`,
		"bad precond":   `{"stack":{"tiers":2,"nx":4,"ny":4,"die_w_um":100,"die_h_um":100},"solver":{"precond":"cholesky"}}`,
		"bad transient": `{"stack":{"tiers":2,"nx":4,"ny":4,"die_w_um":100,"die_h_um":100},"transient":{"dt_s":-1,"steps":3}}`,
	}
	for name, body := range cases {
		code, resp := post(body)
		if code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: HTTP %d error=%q, want 400 with message", name, code, resp.Error)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/eval", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/eval: HTTP %d, want 405", rec.Code)
	}
}

// TestServeDefaultPrecond pins the default preconditioner's contract
// on a stack whose narrow lateral cells (41×41 cells on a 4.1 µm die)
// defeat z-line: with no solver block the default server answers 200
// within a dozen multigrid iterations, where z-line used to stagnate
// into a 500. An explicit zline still runs z-line and fails typed, and
// the retired "jacobi" spelling is a bad request.
func TestServeDefaultPrecond(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	narrow := func() specio.EvalRequest {
		return specio.EvalRequest{Stack: specio.StackJSON{
			DieWUm: 4.1, DieHUm: 4.1, Tiers: 8, NX: 41, NY: 41,
			UniformPower: 2500, BEOL: "scaffolded", PillarCover: 0,
			Sink: "twophase", MemoryPerTier: true,
		}}
	}
	code, resp := postEval(t, s, narrow())
	if code != http.StatusOK {
		t.Fatalf("default request: HTTP %d (%s), want 200", code, resp.Error)
	}
	if resp.Iterations > 12 {
		t.Errorf("default request took %d iterations, want ≤ 12", resp.Iterations)
	}

	zl := narrow()
	zl.Solver = specio.SolverJSON{Precond: "zline", MaxIter: 50}
	code, resp = postEval(t, s, zl)
	if code != http.StatusInternalServerError || !strings.Contains(resp.Error, "(zline preconditioner) max-iterations after 50 iterations") {
		t.Errorf("zline, max_iter 50: HTTP %d (%q), want 500 naming zline and max-iterations", code, resp.Error)
	}

	jac := narrow()
	jac.Solver.Precond = "jacobi"
	if code, resp = postEval(t, s, jac); code != http.StatusBadRequest {
		t.Errorf("jacobi: HTTP %d (%q), want 400", code, resp.Error)
	}
}

// waitFor polls cond with a deadline — used where the test must
// observe a concurrent state transition.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkNoGoroutineLeak fails the test if the goroutine count does not
// return to its pre-test baseline (same retry pattern as the solver's
// cancellation suite).
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeStressRaceAndLeaks is the serve-stress suite: N concurrent
// clients over real HTTP with random per-client cancellations, a
// deliberately tiny cache (evictions), and duplicate requests
// (coalescing). Asserts:
//
//   - the cache never returns a result for a different hash: every
//     response's key equals the locally computed key of its request,
//     and every response for a given key is bitwise identical to the
//     first one seen (every solve is cold, so re-solves after
//     eviction must reproduce the same bits);
//   - after drain, no goroutines leak.
func TestServeStressRaceAndLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tel := telemetry.New()
	s := New(Config{
		SolverWorkers: 1, Parallel: 2, QueueDepth: 256,
		CacheSize: 3,
		Telemetry: tel,
	})
	ts := httptest.NewServer(s)

	// A pool of 6 distinct problems; precompute their keys.
	reqs := make([][]byte, 6)
	keys := make([]string, 6)
	for i := range reqs {
		req := testRequest(20 + 5*float64(i))
		ev, err := specio.BuildEval(req)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], err = Key(ev)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i], err = json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	seen := map[string]specio.EvalResponse{} // key → first response
	var served, cancelled int

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				pick := rng.Intn(len(reqs))
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(3) == 0 {
					// A third of the calls carry a tight client-side
					// deadline; some of those abort mid-request.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3000))*time.Microsecond)
				}
				hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/eval", bytes.NewReader(reqs[pick]))
				if err != nil {
					t.Error(err)
					cancel()
					continue
				}
				res, err := client.Do(hr)
				if err != nil {
					// Client-side cancellation: the server finishes the
					// solve on its own; nothing to assert here.
					mu.Lock()
					cancelled++
					mu.Unlock()
					cancel()
					continue
				}
				var resp specio.EvalResponse
				decErr := json.NewDecoder(res.Body).Decode(&resp)
				res.Body.Close()
				cancel()
				if decErr != nil {
					t.Errorf("client %d: bad response JSON: %v", c, decErr)
					continue
				}
				if res.StatusCode != http.StatusOK {
					t.Errorf("client %d: HTTP %d (%s)", c, res.StatusCode, resp.Error)
					continue
				}
				if resp.Key != keys[pick] {
					t.Errorf("client %d: response key %s for request hashed %s — cache served a different problem",
						c, resp.Key, keys[pick])
					continue
				}
				mu.Lock()
				served++
				if first, ok := seen[resp.Key]; ok {
					if err := sameNumbers(first, resp); err != nil {
						t.Errorf("key %s: response diverged from first observation: %v", resp.Key, err)
					}
				} else {
					seen[resp.Key] = resp
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("stress run served zero successful responses")
	}
	t.Logf("served %d responses (%d client-cancelled) over %d keys; solver ran %d times",
		served, cancelled, len(seen), tel.Counter(telemetry.CounterSolves))

	ctx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	ts.Close()
	checkNoGoroutineLeak(t, baseline)
}
