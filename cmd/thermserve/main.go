// Command thermserve runs the thermal evaluation service: an HTTP
// endpoint that turns JSON stack evaluations into peak/per-tier
// temperatures, with request coalescing, a content-addressed solve
// cache, bounded queueing, and graceful drain (internal/serve). Every
// response is a pure function of its request and -workers.
//
// Usage:
//
//	thermserve -addr localhost:8080
//	thermserve -addr localhost:8080 -parallel 4 -cache 512 -queue 128
//	thermserve -example          # print an example request and exit
//
// Endpoints:
//
//	POST /v1/eval      — evaluate a request (see internal/specio.EvalRequest)
//	POST /v1/evalbatch — evaluate K power scenarios against one stack in a
//	                     single coalesced solve (specio.EvalBatchRequest)
//	POST /v1/evaltrace — integrate a power schedule, streaming peak-T
//	                     checkpoints as SSE as segments complete
//	                     (specio.TraceRequest; resumable via resume_from)
//	GET  /healthz      — liveness (503 while draining)
//	GET  /metrics      — cache/coalescing counters, queue depth, p50/p99 latency
//
// Try it:
//
//	thermserve -example > req.json
//	curl -s -X POST --data @req.json http://localhost:8080/v1/eval
//	thermserve -example-batch > batch.json
//	curl -s -X POST --data @batch.json http://localhost:8080/v1/evalbatch
//	thermserve -example-trace > trace.json
//	curl -sN -X POST --data @trace.json http://localhost:8080/v1/evaltrace
//
// Ctrl-C drains gracefully: new requests get 503 + Retry-After while
// in-flight solves finish; a second deadline (-drain) force-cancels
// stragglers through the solver's context plumbing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"thermalscaffold/internal/cluster"
	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: it parses args, serves until ctx
// cancels, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address")
	example := fs.Bool("example", false, "print an example eval request and exit")
	exampleBatch := fs.Bool("example-batch", false, "print an example /v1/evalbatch request and exit")
	exampleTrace := fs.Bool("example-trace", false, "print an example /v1/evaltrace request and exit")
	parallel := fs.Int("parallel", 0, "max concurrently running solves (0 = one per CPU core)")
	workers := fs.Int("workers", 1, "solver goroutines per solve (the service parallelizes across requests)")
	queue := fs.Int("queue", 64, "solve queue depth beyond running; past it requests get 503 + Retry-After")
	cache := fs.Int("cache", 256, "content-addressed result cache entries (negative disables)")
	batchWindow := fs.Duration("batch-window", 0, "micro-batching window for steady misses sharing a family (same stack, different power); 0 disables")
	maxBatch := fs.Int("max-batch", 0, "max requests one batch window may gather before flushing early (0 = default 16)")
	assemblyCache := fs.Int("assembly-cache", 0, "solver assembly cache: families whose stencils are reused across solves (0 = default, negative disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request solve deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget before in-flight solves are cancelled")
	reportPath := fs.String("report", "", "on shutdown write a JSON run report (solve traces, counters) to this path; \"-\" = stdout")
	peers := fs.String("peers", "", "cluster membership as id=url,id=url,... (including this node); empty = single-node")
	shard := fs.String("shard", "", "this node's ring ID within -peers (required with -peers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *example {
		raw, err := specio.MarshalEval(specio.ExampleEval())
		if err != nil {
			fmt.Fprintf(stderr, "thermserve: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	if *exampleBatch {
		raw, err := specio.MarshalEvalBatch(specio.ExampleEvalBatch())
		if err != nil {
			fmt.Fprintf(stderr, "thermserve: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	if *exampleTrace {
		raw, err := specio.MarshalTrace(specio.ExampleTrace())
		if err != nil {
			fmt.Fprintf(stderr, "thermserve: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}

	tel := telemetry.New()
	cfg := serve.Config{
		SolverWorkers:  *workers,
		Parallel:       *parallel,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		BatchWindow:    *batchWindow,
		MaxBatch:       *maxBatch,
		AssemblyCache:  *assemblyCache,
		DefaultTimeout: *timeout,
		Telemetry:      tel,
	}
	var clu *cluster.Cluster
	if *peers != "" {
		nodes, perr := parsePeers(*peers)
		if perr != nil {
			fmt.Fprintf(stderr, "thermserve: -peers: %v\n", perr)
			return 2
		}
		if *shard == "" {
			fmt.Fprintln(stderr, "thermserve: -peers requires -shard (this node's ring ID)")
			return 2
		}
		clu, perr = cluster.New(cluster.Config{Self: *shard, Nodes: nodes, Telemetry: tel})
		if perr != nil {
			fmt.Fprintf(stderr, "thermserve: %v\n", perr)
			return 2
		}
		defer clu.Close()
		cfg.Peers = clu
	} else if *shard != "" {
		fmt.Fprintln(stderr, "thermserve: -shard requires -peers")
		return 2
	}
	srv := serve.New(cfg)
	srv.PublishExpvar("thermserve")

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "thermserve: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "thermserve: serving on http://%s/v1/eval\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "thermserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "thermserve: draining (budget %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the service first (reject new, finish in-flight, then
	// cancel stragglers), then close the listener/connections.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "thermserve: drain budget exceeded, in-flight solves cancelled (%v)\n", err)
	}
	hs.Shutdown(drainCtx)
	if *reportPath != "" {
		if err := tel.WriteReportFile(*reportPath, "thermserve", args); err != nil {
			fmt.Fprintf(stderr, "thermserve: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stderr, "thermserve: drained")
	return 0
}

// parsePeers parses the -peers flag: comma-separated id=url pairs.
func parsePeers(s string) ([]cluster.NodeSpec, error) {
	var nodes []cluster.NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q, want id=url", part)
		}
		nodes = append(nodes, cluster.NodeSpec{ID: id, URL: url})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no peers listed")
	}
	return nodes, nil
}
