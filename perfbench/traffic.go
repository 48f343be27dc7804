package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/specio"
)

// The service workloads replay traffic the repository already defines
// in its own benchmarks, as a continuous closed loop over loopback
// HTTP, with the node configuration, client count and timed unit (the
// round) those benchmarks use. The seed only moves the numbers inside
// each request (power densities, pillar coverage, trace power scales)
// by less than the spacing between requests, so every seed does the
// same amount of work.

// serveStack is the stack of the internal/serve benchmarks (testStack):
// a scaffolded 200 µm die on the two-phase sink.
func serveStack(tiers, grid int, cover, power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: tiers, NX: grid, NY: grid,
		UniformPower: power,
		BEOL:         "scaffolded",
		PillarCover:  cover,
		Sink:         "twophase",
	}
}

// seeded is the input stream of one request or one group of requests:
// a pure function of (seed, stream), whichever client sends it.
func seeded(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)+1))
}

func evalJob(idx int, id string, req specio.EvalRequest) *job {
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // a plain struct of numbers and strings always marshals
	}
	return &job{idx: idx, id: id, path: "/v1/eval", body: raw, eval: &req}
}

// newHot is BenchmarkServe100Mixed (internal/serve/bench_test.go) run
// back to back: rounds of 100 requests, 10 distinct 4-tier 16×16
// problems × 10 repeats in the benchmark's strided order, from 8
// clients, against its node configuration. Each round draws 10 new
// powers, so it opens with cache misses and its repeats hit the result
// cache or coalesce onto the solve in flight, as in the benchmark,
// where each round meets a new node; unlike there, the misses
// warm-start from earlier rounds' fields. Set-up runs round 0.
func newHot(seed int64) system {
	const distinct, repeats = 10, 10
	return &service{
		cfg:     serve.Config{SolverWorkers: 1, Parallel: 4, QueueDepth: 256},
		clients: 8, round: distinct * repeats, warm: distinct * repeats,
		gen: func(i int) *job {
			round, pos := i/(distinct*repeats), i%(distinct*repeats)
			k := (3*(pos/distinct) + pos%distinct) % distinct
			u := seeded(seed, round*distinct+k).Float64()
			req := specio.EvalRequest{Stack: serveStack(4, 16, 0.1, 20+3*float64(k)+u)}
			req.Solver.Tol = 5e-22
			return evalJob(i, fmt.Sprintf("r%d/p%d", round, k), req)
		},
	}
}

// newColdFam is BenchmarkServeColdFamily/window=on
// (internal/serve/bench_test.go) run back to back: storms of 32
// concurrent requests, 2 families (pillar coverages) × 16 power maps,
// each a 4-tier 32×32 f32 multigrid screening solve, against a node
// with its 20 ms batching window and 16-request batches. Every storm
// brings two new families, so each pays two assemblies and every
// request is a cold miss, as in the benchmark, where each storm meets
// a new node. Set-up runs storm 0.
func newColdFam(seed int64) system {
	const families, perFamily = 2, 16
	return &service{
		cfg: serve.Config{
			SolverWorkers: 1, Parallel: 4, QueueDepth: 256,
			CacheSize: -1, FamilySize: -1, DisableWarmStart: true,
			BatchWindow: 20 * time.Millisecond, MaxBatch: perFamily,
		},
		clients: families * perFamily, round: families * perFamily, warm: families * perFamily,
		gen: func(i int) *job {
			storm, f, p := i/(families*perFamily), (i/perFamily)%families, i%perFamily
			u := seeded(seed, storm).Float64()
			req := specio.EvalRequest{Stack: serveStack(4, 32, 0.1+0.05*float64(f)+0.04*u, 15+3*float64(p)+u)}
			req.Solver.Precond = "multigrid"
			req.Solver.Precision = "f32"
			req.Solver.Tol = 5e-2
			return evalJob(i, fmt.Sprintf("s%d/f%d/p%d", storm, f, p), req)
		},
	}
}

// newTrace streams the repository's example trace (specio.ExampleTrace:
// the 12-tier example stack, three 20-step segments — burst, idle, burst
// with a hot block — on multigrid, state in every checkpoint) through
// /v1/evaltrace, one stream at a time from one client, against a node
// with thermserve's defaults; a round is one stream. The streams cycle
// through 16 variants, in a new seeded order each cycle, whose segment
// power scales and block density are drawn from the seed. Every variant
// is one geometry, so streams after the first reuse the cached assembly
// and the per-Δt preconditioners. Set-up streams the first 2 requests.
func newTrace(seed int64) system {
	const variants = 16
	reqs := make([]specio.TraceRequest, variants)
	for v := range reqs {
		r := seeded(seed, v)
		req := specio.ExampleTrace()
		for s := range req.Segments {
			seg := &req.Segments[s]
			scale := *seg.PowerScale * (0.9 + 0.2*r.Float64())
			seg.PowerScale = &scale
			for b := range seg.PowerBlocks {
				seg.PowerBlocks[b].DensityWPerCm2 *= 0.9 + 0.2*r.Float64()
			}
		}
		reqs[v] = req
	}
	return &service{
		clients: 1, round: 1, warm: 2,
		gen: func(i int) *job {
			v := seeded(seed, variants+i/variants).Perm(variants)[i%variants]
			req := reqs[v]
			raw, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			return &job{idx: i, id: fmt.Sprintf("v%d", v), path: "/v1/evaltrace", body: raw, trace: &req}
		},
	}
}
