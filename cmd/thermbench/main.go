// Command thermbench is an open-loop load generator for thermserve:
// it replays a deterministic mixed hot/cold workload against one or
// more nodes and reports throughput and latency percentiles as JSON.
//
// Usage:
//
//	thermbench -targets http://n0:8080,http://n1:8080 -n 500 -concurrency 8
//	thermbench -targets http://n0:8080 -reuse 0.9 -mix steady=0.8,rc=0.15,batch=0.05
//	thermbench -targets http://n0:8080 -rate 200      # open-loop at 200 req/s
//
// The workload is reproducible: -seed fixes the request sequence
// (key reuse draws, mode draws, and key assignment), so two runs
// against the same cluster state replay byte-identical request
// bodies in the same order. Requests round-robin across -targets.
//
//   - -reuse is the hot fraction: the probability a request reuses a
//     key already issued (a cache hit somewhere in a warm cluster)
//     instead of minting a fresh one (a cold solve).
//   - -mix weights the request modes: steady and rc hit /v1/eval,
//     batch hits /v1/evalbatch with 3 scenarios per request, and
//     coldfam hits /v1/eval with a fresh never-reused power in the
//     shared family (same stack) — a guaranteed cold-miss storm that
//     exercises the server's -batch-window micro-batching.
//   - -rate > 0 switches from closed-loop (fixed concurrency, next
//     request when a worker frees) to open-loop (requests dispatched
//     on schedule regardless of completions, still bounded by
//     -concurrency workers).
//
// The report (stdout) carries p50/p99 latency, sustained throughput,
// error and cache-hit counts, and the per-mode request tally.
package main

import (
	"context"
	"os"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
