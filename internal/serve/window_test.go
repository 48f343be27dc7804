package serve

// Batching-window suite: windowed responses must be bitwise identical
// to solo cold solves (at Workers 1 and 8, both precision tiers), a
// lone windowed request must flush as a group of one with the same
// answer, same-family cold misses must reuse one assembly, and the
// cold-miss storm (run by `make serve-stress`) exercises the window
// under concurrency, client cancellations, and drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// directColdSolve reproduces the server's cold-solve path with the
// request's full option set (including the precision tier, which
// directSolve's steady-only callers don't vary).
func directColdSolve(t *testing.T, req specio.EvalRequest, workers int) specio.EvalResponse {
	t.Helper()
	ev, err := specio.BuildEval(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.SolveSteady(ev.Problem, solver.Options{
		Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond,
		Precision: ev.Precision, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak, mean := ev.FieldStats(res.T)
	key, err := Key(ev)
	if err != nil {
		t.Fatal(err)
	}
	return specio.EvalResponse{
		Key: key, Mode: ev.Mode(),
		PeakT: telemetry.Float(peak), MeanT: telemetry.Float(mean),
		Tiers: ev.TierProfile(res.T), Iterations: res.Iterations,
		Residual: telemetry.Float(res.Residual),
	}
}

// TestServeWindowEquivalence pins the window's hard contract: every
// response of a multi-request flush is bitwise identical to a solo
// cold solve of the same request — at Workers 1 and 8, f64 and f32.
func TestServeWindowEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, precision := range []string{"", "f32"} {
			name := fmt.Sprintf("workers%d/%s", workers, map[string]string{"": "f64", "f32": "f32"}[precision])
			t.Run(name, func(t *testing.T) {
				s := New(Config{
					SolverWorkers: workers,
					BatchWindow:   25 * time.Millisecond,
				})
				defer s.Shutdown(context.Background())

				// One family, distinct power maps: every request is a cold
				// miss sharing the window's family key.
				const storm = 6
				reqs := make([]specio.EvalRequest, storm)
				want := make([]specio.EvalResponse, storm)
				for i := range reqs {
					reqs[i] = testRequest(20 + 3*float64(i))
					reqs[i].Solver.Precision = precision
					want[i] = directColdSolve(t, reqs[i], workers)
				}

				got := make([]specio.EvalResponse, storm)
				var wg sync.WaitGroup
				for i := range reqs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						code, resp := postEval(t, s, reqs[i])
						if code != http.StatusOK {
							t.Errorf("request %d: HTTP %d (%s)", i, code, resp.Error)
						}
						got[i] = resp
					}(i)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				for i := range reqs {
					if err := sameNumbers(got[i], want[i]); err != nil {
						t.Errorf("windowed response %d differs from its solo cold solve: %v", i, err)
					}
					if got[i].Cached {
						t.Errorf("windowed response %d flagged cached", i)
					}
				}

				// Window accounting: every request passed through a flush,
				// however the storm happened to split across windows.
				c := s.snapshot().Counters
				if c[telemetry.CounterBatchWindowOccupancy] != storm {
					t.Errorf("window occupancy %d, want %d", c[telemetry.CounterBatchWindowOccupancy], storm)
				}
				if f := c[telemetry.CounterBatchWindowFlushes]; f < 1 || f > storm {
					t.Errorf("window flushes %d, want between 1 and %d", f, storm)
				}
			})
		}
	}
}

// TestServeWindowSoloDegradation: with the window on, a lone request
// flushes as a group of one, and its answer equals a direct cold
// solve — also when a family neighbor was solved just before it.
func TestServeWindowSoloDegradation(t *testing.T) {
	s := New(Config{SolverWorkers: 1, BatchWindow: 2 * time.Millisecond})
	defer s.Shutdown(context.Background())
	b := testRequest(30)
	b.PowerBlocks = []specio.PowerBlock{{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: 15}}

	for i, req := range []specio.EvalRequest{testRequest(30), b} {
		code, resp := postEval(t, s, req)
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d (%s)", i, code, resp.Error)
		}
		if err := sameNumbers(resp, directColdSolve(t, req, 1)); err != nil {
			t.Fatalf("lone windowed request %d differs from its direct cold solve: %v", i, err)
		}
	}
	c := s.snapshot().Counters
	if c[telemetry.CounterBatchWindowFlushes] != 2 || c[telemetry.CounterBatchWindowOccupancy] != 2 {
		t.Fatalf("flushes/occupancy = %d/%d, want 2/2 (one solo flush per request)",
			c[telemetry.CounterBatchWindowFlushes], c[telemetry.CounterBatchWindowOccupancy])
	}
}

// TestServeFamilyAssemblyStructural pins the assembly-cache
// acceptance criterion structurally: the second cold solve of a
// family performs zero operator assemblies — it reuses the first
// solve's — and /metrics says so.
func TestServeFamilyAssemblyStructural(t *testing.T) {
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())

	if code, resp := postEval(t, s, testRequest(30)); code != http.StatusOK {
		t.Fatalf("first solve: HTTP %d (%s)", code, resp.Error)
	}
	c := s.snapshot().Counters
	if c["family_assemblies"] != 1 || c[telemetry.CounterFamilyAssemblyMisses] != 1 {
		t.Fatalf("after first solve: assemblies=%d misses=%d, want 1/1",
			c["family_assemblies"], c[telemetry.CounterFamilyAssemblyMisses])
	}

	// Same family, different power map: a cold miss for the result
	// cache, a hit for the assembly cache.
	if code, resp := postEval(t, s, testRequest(45)); code != http.StatusOK {
		t.Fatalf("second solve: HTTP %d (%s)", code, resp.Error)
	}
	c = s.snapshot().Counters
	if c["family_assemblies"] != 1 {
		t.Fatalf("second same-family cold solve assembled again: assemblies=%d, want 1", c["family_assemblies"])
	}
	if c[telemetry.CounterFamilyAssemblyHits] != 1 {
		t.Fatalf("family hit not counted: hits=%d, want 1", c[telemetry.CounterFamilyAssemblyHits])
	}

	// A different geometry is a new family: exactly one more assembly.
	other := specio.EvalRequest{Stack: testStack(2, 10, 30)}
	if code, resp := postEval(t, s, other); code != http.StatusOK {
		t.Fatalf("new-family solve: HTTP %d (%s)", code, resp.Error)
	}
	if c = s.snapshot().Counters; c["family_assemblies"] != 2 {
		t.Fatalf("new family: assemblies=%d, want 2", c["family_assemblies"])
	}
}

// TestServeColdFamilyStorm is the serve-stress window suite: N
// concurrent clients fire unique power maps of one family at a
// window-enabled server over real HTTP, a third of them with tight
// client-side deadlines (some abort mid-window — the server must
// finish the group on its own). Asserts every successful response is
// bitwise identical to a solo cold solve of its request, and that
// drain leaks no goroutines.
func TestServeColdFamilyStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{
		SolverWorkers: 1, Parallel: 2, QueueDepth: 256,
		BatchWindow: 5 * time.Millisecond, MaxBatch: 4,
	})
	ts := httptest.NewServer(s)

	// Unique powers: every request is its own key, all one family.
	const clients = 8
	const perClient = 6
	type expect struct {
		raw  []byte
		want specio.EvalResponse
	}
	exps := make([]expect, clients*perClient)
	for i := range exps {
		req := testRequest(10 + float64(i)/4)
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = expect{raw: raw, want: directColdSolve(t, req, 1)}
	}

	var mu sync.Mutex
	var served, cancelled int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + c)))
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				idx := c*perClient + i
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(3) == 0 {
					// Deadlines shorter than the window: these abort while
					// parked, mid-window.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(6000))*time.Microsecond)
				}
				hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/eval", bytes.NewReader(exps[idx].raw))
				if err != nil {
					t.Error(err)
					cancel()
					continue
				}
				res, err := client.Do(hr)
				if err != nil {
					// Client-side cancellation: the window still flushes and
					// solves server-side.
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
				if err := sameNumbers(resp, exps[idx].want); err != nil {
					t.Errorf("windowed response for power index %d differs from its solo cold solve: %v", idx, err)
					continue
				}
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("storm served zero successful responses")
	}
	snap := s.snapshot()
	c := snap.Counters
	if c["family_assemblies"] != 1 {
		t.Errorf("one-family storm assembled %d operators, want 1", c["family_assemblies"])
	}
	t.Logf("served %d responses (%d client-cancelled); %d flushes carried %d requests; %d assemblies",
		served, cancelled, c[telemetry.CounterBatchWindowFlushes],
		c[telemetry.CounterBatchWindowOccupancy], c["family_assemblies"])

	ctx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	ts.Close()
	checkNoGoroutineLeak(t, baseline)
}
