package serve

// Throughput benchmark behind the ≥5× acceptance criterion: 100
// requests, 10 distinct problems × 10 repeats in a fixed shuffled
// order, driven by 8 concurrent clients — once against the full
// service (cache + coalescing) and once with caching disabled so
// every request is a solve. `make bench-serve` records the pair in
// BENCH_serve.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/specio"
)

const (
	benchDistinct = 10
	benchRepeats  = 10
	benchClients  = 8
)

// benchMix returns the 100-request workload: a deterministic
// interleaving so hot repeats arrive while and after their cold solve
// runs, like a placement loop re-evaluating candidates.
func benchMix(b *testing.B) [][]byte {
	b.Helper()
	reqs := make([][]byte, benchDistinct)
	for i := range reqs {
		// Big enough that the solve dominates per-request normalization
		// and hashing — the regime the cache is for.
		req := specio.EvalRequest{Stack: testStack(4, 16, 20+3*float64(i))}
		req.Solver.Tol = 5e-22
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = raw
	}
	mix := make([][]byte, 0, benchDistinct*benchRepeats)
	for r := 0; r < benchRepeats; r++ {
		for i := 0; i < benchDistinct; i++ {
			// Stride the order so consecutive requests differ but every
			// problem recurs: i, i+3, i+6, ... mod 10 per round.
			mix = append(mix, reqs[(3*r+i)%benchDistinct])
		}
	}
	return mix
}

func benchServe(b *testing.B, cfg Config) {
	mix := benchMix(b)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		s := New(cfg)
		b.StartTimer()

		work := make(chan []byte)
		var wg sync.WaitGroup
		for c := 0; c < benchClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for raw := range work {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
					if rec.Code != http.StatusOK {
						b.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
					}
				}
			}()
		}
		for _, raw := range mix {
			work <- raw
		}
		close(work)
		wg.Wait()

		b.StopTimer()
		s.Shutdown(context.Background())
		b.StartTimer()
	}
}

// BenchmarkServe100Mixed is the full service: repeats hit the cache
// or coalesce onto in-flight solves.
func BenchmarkServe100Mixed(b *testing.B) {
	benchServe(b, Config{SolverWorkers: 1, Parallel: 4, QueueDepth: 256})
}

// BenchmarkServe100MixedNoCache is the baseline: caching disabled, so
// all 100 requests solve.
// Coalescing still exists but the strided mix keeps identical requests
// from overlapping, so it almost never fires.
func BenchmarkServe100MixedNoCache(b *testing.B) {
	benchServe(b, Config{
		SolverWorkers: 1, Parallel: 4, QueueDepth: 256,
		CacheSize: -1,
	})
}

// BenchmarkServeBatch compares the same 10-scenario sweep issued as
// 10 single /v1/eval requests versus one /v1/evalbatch request, both
// on a cold cache with the multigrid preconditioner (the serving
// configuration for large grids): the batch pays operator assembly
// and the multigrid hierarchy once and shares one admission slot.
func BenchmarkServeBatch(b *testing.B) {
	base := specio.EvalRequest{Stack: testStack(4, 16, 20)}
	base.Solver.Precond = "multigrid"
	singles := make([][]byte, benchDistinct)
	items := make([]specio.BatchItem, benchDistinct)
	for i := range singles {
		power := 20 + 3*float64(i)
		req := specio.EvalRequest{Stack: testStack(4, 16, power)}
		req.Solver.Precond = "multigrid"
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		singles[i] = raw
		p := power
		items[i] = specio.BatchItem{UniformPower: &p}
	}
	batchRaw, err := json.Marshal(specio.EvalBatchRequest{Base: base, Items: items})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{SolverWorkers: 1, Parallel: 4, QueueDepth: 256, CacheSize: -1}

	b.Run("singles", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			s := New(cfg)
			b.StartTimer()
			for _, raw := range singles {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.StopTimer()
			s.Shutdown(context.Background())
			b.StartTimer()
		}
	})
	b.Run("batch", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			s := New(cfg)
			b.StartTimer()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/evalbatch", bytes.NewReader(batchRaw)))
			if rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
			}
			b.StopTimer()
			s.Shutdown(context.Background())
			b.StartTimer()
		}
	})
}

// BenchmarkServeColdFamily is the cross-request batching benchmark
// behind the ≥1.5× acceptance criterion: a cold-miss storm — 2
// families × 16 unique power maps, every request fired concurrently —
// against the pre-batching path (window=0, assembly cache and family
// memo off: each request builds, hashes, and assembles its operator
// and multigrid hierarchy from scratch) and against this PR's path
// (window=on: same-family misses
// flush as one multi-RHS solve over the engine's cached family
// assembly). Both run the same Parallel=4 admission bound, so the
// window's win is doing less setup work, not using more cores.
func BenchmarkServeColdFamily(b *testing.B) {
	const famCount = 2
	const perFamily = 16
	reqs := make([][]byte, 0, famCount*perFamily)
	for f := 0; f < famCount; f++ {
		for p := 0; p < perFamily; p++ {
			req := specio.EvalRequest{Stack: testStack(4, 32, 15+3*float64(p))}
			// Distinct pillar cover → distinct conductivity field →
			// distinct family, at identical problem size and cost.
			req.Stack.PillarCover = 0.1 + 0.05*float64(f)
			// The regime the window is for: the screening configuration
			// of a DTM candidate sweep — f32 preconditioner tier and a
			// ranking-grade tolerance that converges in a couple of
			// V-cycles, so operator assembly plus hierarchy construction
			// is a large slice of each cold solve.
			req.Solver.Precond = "multigrid"
			req.Solver.Precision = "f32"
			req.Solver.Tol = 5e-2
			raw, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, raw)
		}
	}
	storm := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			s := New(cfg)
			b.StartTimer()
			var wg sync.WaitGroup
			for _, raw := range reqs {
				wg.Add(1)
				go func(raw []byte) {
					defer wg.Done()
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
					if rec.Code != http.StatusOK {
						b.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
					}
				}(raw)
			}
			wg.Wait()
			b.StopTimer()
			s.Shutdown(context.Background())
			b.StartTimer()
		}
	}
	base := Config{
		SolverWorkers: 1, Parallel: 4, QueueDepth: 256,
		CacheSize: -1,
	}
	b.Run("window=0", func(b *testing.B) {
		cfg := base
		cfg.AssemblyCache = -1 // the pre-batching cold path end to end
		cfg.FamilyMemo = -1    // no geometry reuse either: build + hash per request
		storm(b, cfg)
	})
	b.Run("window=on", func(b *testing.B) {
		cfg := base
		// Wide enough for the whole storm to park even when request
		// handling serializes on one core; the flush fires at MaxBatch,
		// not the deadline, so the width costs nothing when full.
		cfg.BatchWindow = 20 * time.Millisecond
		cfg.MaxBatch = perFamily
		storm(b, cfg)
	})
}
