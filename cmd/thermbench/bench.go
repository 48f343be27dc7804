package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"thermalscaffold/internal/specio"
)

// Report is the JSON document thermbench prints: the workload knobs
// it ran with and what the cluster did under them.
type Report struct {
	Targets     []string `json:"targets"`
	Requests    int      `json:"requests"`
	Concurrency int      `json:"concurrency"`
	RateRPS     float64  `json:"rate_rps,omitempty"`
	Reuse       float64  `json:"reuse"`
	Mix         string   `json:"mix"`
	Seed        int64    `json:"seed"`

	Errors     int            `json:"errors"`
	CacheHits  int            `json:"cache_hits"`
	ByMode     map[string]int `json:"by_mode"`
	DurationNS int64          `json:"duration_ns"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
}

// job is one scheduled request, fully determined before the run
// starts (body bytes, target, mode) so the workload replays
// identically for a fixed seed.
type job struct {
	target string
	path   string
	body   []byte
	mode   string
}

// mixWeights is the parsed -mix flag.
type mixWeights struct {
	steady, rc, batch, coldfam float64
}

func parseMix(s string) (mixWeights, error) {
	m := mixWeights{}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix component %q, want mode=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", val)
		}
		if seen[name] {
			return m, fmt.Errorf("mode %q listed twice", name)
		}
		seen[name] = true
		switch name {
		case "steady":
			m.steady = w
		case "rc":
			m.rc = w
		case "batch":
			m.batch = w
		case "coldfam":
			m.coldfam = w
		default:
			return m, fmt.Errorf("unknown mode %q (want steady, rc, batch, or coldfam)", name)
		}
	}
	if m.steady+m.rc+m.batch+m.coldfam <= 0 {
		return m, fmt.Errorf("mix has no weight")
	}
	return m, nil
}

// pick draws a mode from the weights.
func (m mixWeights) pick(rng *rand.Rand) string {
	x := rng.Float64() * (m.steady + m.rc + m.batch + m.coldfam)
	switch {
	case x < m.steady:
		return "steady"
	case x < m.steady+m.rc:
		return "rc"
	case x < m.steady+m.rc+m.batch:
		return "batch"
	default:
		return "coldfam"
	}
}

// benchStack is the workload's stack shape; power individuates keys.
func benchStack(power float64) specio.StackJSON {
	return specio.StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: 2, NX: 8, NY: 8,
		UniformPower: power,
		BEOL:         "scaffolded",
		PillarCover:  0.1,
		Sink:         "twophase",
	}
}

// buildJobs pre-generates the whole request schedule: the mode draws,
// hot/cold key draws, and round-robin target assignment.
func buildJobs(targets []string, n int, reuse float64, mix mixWeights, seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]job, 0, n)
	var pool []float64 // powers already issued — the "hot" set
	nextCold := 1.0
	nextColdFam := 0.5 // offset so coldfam powers never collide with the pool
	for i := 0; i < n; i++ {
		mode := mix.pick(rng)
		var power float64
		if mode == "coldfam" {
			// A guaranteed cold miss within the shared family:
			// the power is fresh and never enters the reuse pool, so every
			// coldfam request forces a solve — the window-batching storm
			// workload.
			power = nextColdFam
			nextColdFam++
		} else if len(pool) > 0 && rng.Float64() < reuse {
			power = pool[rng.Intn(len(pool))]
		} else {
			power = nextCold
			nextCold++
			pool = append(pool, power)
		}
		j := job{target: targets[i%len(targets)], mode: mode}
		switch mode {
		case "batch":
			breq := specio.EvalBatchRequest{
				Base: specio.EvalRequest{Stack: benchStack(power)},
				Items: []specio.BatchItem{
					{},
					{PowerBlocks: []specio.PowerBlock{{X0: 1, Y0: 1, X1: 5, Y1: 5, DensityWPerCm2: power + 10}}},
					{PowerBlocks: []specio.PowerBlock{{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: power + 20}}},
				},
			}
			raw, err := json.Marshal(breq)
			if err != nil {
				return nil, err
			}
			j.path, j.body = "/v1/evalbatch", raw
		default:
			req := specio.EvalRequest{Stack: benchStack(power)}
			if mode == "rc" {
				req.Fidelity = specio.FidelityRC
			}
			raw, err := specio.MarshalEval(req)
			if err != nil {
				return nil, err
			}
			j.path, j.body = "/v1/eval", raw
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// outcome is one request's measured result.
type outcome struct {
	latency time.Duration
	cached  bool
	err     bool
}

// execute runs the schedule and aggregates the report. Closed-loop
// when rate == 0 (workers pull the next job as they free up);
// open-loop when rate > 0 (jobs released on schedule into a bounded
// worker pool — saturation then shows up as queueing latency, which
// is the point of open-loop measurement).
func execute(ctx context.Context, client *http.Client, jobs []job, concurrency int, rate float64) ([]outcome, time.Duration) {
	results := make([]outcome, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = doJob(ctx, client, jobs[i])
			}
		}()
	}
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
feed:
	for i := range jobs {
		if interval > 0 {
			// Open loop: release job i at its scheduled instant even
			// if earlier requests are still in flight.
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break feed
				}
			}
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return results, time.Since(start)
}

// doJob posts one request and classifies the response.
func doJob(ctx context.Context, client *http.Client, j job) outcome {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, j.target+j.path, bytes.NewReader(j.body))
	if err != nil {
		return outcome{latency: time.Since(t0), err: true}
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := client.Do(req)
	if err != nil {
		return outcome{latency: time.Since(t0), err: true}
	}
	body, rerr := io.ReadAll(res.Body)
	res.Body.Close()
	o := outcome{latency: time.Since(t0), err: rerr != nil || res.StatusCode != http.StatusOK}
	if o.err {
		return o
	}
	switch j.path {
	case "/v1/evalbatch":
		var br specio.EvalBatchResponse
		if json.Unmarshal(body, &br) == nil {
			for _, item := range br.Items {
				if item.Cached {
					o.cached = true
				}
			}
		}
	default:
		var er specio.EvalResponse
		if json.Unmarshal(body, &er) == nil {
			o.cached = er.Cached
		}
	}
	return o
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)) / 100)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// run is the testable entry point.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targetsFlag := fs.String("targets", "", "comma-separated thermserve base URLs (required)")
	n := fs.Int("n", 200, "total requests to issue")
	concurrency := fs.Int("concurrency", 4, "worker goroutines")
	reuse := fs.Float64("reuse", 0.8, "key-reuse ratio in [0,1]: fraction of requests replaying an already-issued key")
	mixFlag := fs.String("mix", "steady=0.8,rc=0.15,batch=0.05", "request-mode weights (steady, rc, batch, coldfam)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed-loop)")
	seed := fs.Int64("seed", 1, "workload RNG seed (fixes the request sequence)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request client timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *targetsFlag == "" {
		fmt.Fprintln(stderr, "thermbench: -targets is required")
		fs.Usage()
		return 2
	}
	var targets []string
	for _, raw := range strings.Split(*targetsFlag, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			fmt.Fprintf(stderr, "thermbench: bad target %q\n", raw)
			return 2
		}
		targets = append(targets, strings.TrimRight(raw, "/"))
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "thermbench: -targets lists no URLs")
		return 2
	}
	if *n <= 0 || *concurrency <= 0 {
		fmt.Fprintln(stderr, "thermbench: -n and -concurrency must be positive")
		return 2
	}
	if *reuse < 0 || *reuse > 1 {
		fmt.Fprintln(stderr, "thermbench: -reuse must be in [0,1]")
		return 2
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(stderr, "thermbench: -mix: %v\n", err)
		return 2
	}
	if *rate < 0 {
		fmt.Fprintln(stderr, "thermbench: -rate must be ≥ 0")
		return 2
	}

	jobs, err := buildJobs(targets, *n, *reuse, mix, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "thermbench: %v\n", err)
		return 1
	}
	client := &http.Client{Timeout: *timeout}
	results, elapsed := execute(ctx, client, jobs, *concurrency, *rate)

	rep := Report{
		Targets: targets, Requests: len(jobs), Concurrency: *concurrency,
		RateRPS: *rate, Reuse: *reuse, Mix: *mixFlag, Seed: *seed,
		ByMode: map[string]int{}, DurationNS: elapsed.Nanoseconds(),
	}
	var lat []time.Duration
	for i, o := range results {
		rep.ByMode[jobs[i].mode]++
		if o.err {
			rep.Errors++
			continue
		}
		if o.cached {
			rep.CacheHits++
		}
		lat = append(lat, o.latency)
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(lat)) / elapsed.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.P50NS = percentile(lat, 50).Nanoseconds()
	rep.P99NS = percentile(lat, 99).Nanoseconds()

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "thermbench: %v\n", err)
		return 1
	}
	if rep.Errors > 0 {
		fmt.Fprintf(stderr, "thermbench: %d/%d requests failed\n", rep.Errors, rep.Requests)
		return 1
	}
	return 0
}
