// Command perfbench is the repository benchmark. It measures the two
// things this system exists for, end to end:
//
//   - paperflow: the paper's design flow — the minimum-penalty pillar
//     placement of Table I plus the Fig. 9 tier-scaling search, for
//     each design, called in process as a study loop would.
//   - hot, coldfam, trace: thermserve traffic, from request bytes in
//     to response bytes out over loopback HTTP, against an in-process
//     node. Each replays traffic that a benchmark or example of the
//     repository defines (see traffic.go).
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// The seed fixes every input. Each run sets the system up several
// times and reports the median set-up time, then times rounds of
// operations for --seconds and checks every answer. An operation is one
// request, or one design study for paperflow; a round is the group of
// operations that the repository benchmark a workload replays times as
// one, and rounds run one after another. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it attaches the telemetry
// collector and reports per-layer metrics instead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Progress and diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"thermalscaffold/internal/telemetry"
)

// A run builds the system at least setupRounds times and until
// setupSpan has passed; set-up time is reported as the median.
const (
	setupRounds = 9
	setupSpan   = 2 * time.Second
)

// system is one workload's system under test, built from the seed.
type system interface {
	// setup builds the system and brings it to its steady state
	// (caches filled, lazy set-up done). tel is nil unless tracing.
	setup(tel *telemetry.Collector) error
	// measure runs rounds until the deadline passes; a round started
	// before it finishes.
	measure(deadline time.Time) []op
	// counters snapshots the service counters that per-layer metrics
	// are derived from (nil when the workload has no service).
	counters() (map[string]int64, error)
	// verify checks the answers against independent reference
	// computations; it runs after timing ends.
	verify() error
	close()
}

// op is one timed round of n operations, failed of which failed; err
// is the first failure.
type op struct {
	latency   time.Duration
	n, failed int
	err       error
}

// workload is one traffic mix; BENCHMARK.json says why each is there.
type workload struct {
	name string
	make func(seed int64) system
}

var workloads = []workload{
	{"paperflow", newPaperflow},
	{"hot", newHot},
	{"coldfam", newColdFam},
	{"trace", newTrace},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds ≥ 1, --trace 0|1\n", names())
		return 2
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// execute sets the workload up repeatedly (keeping the last system),
// measures it, verifies its answers and derives the metrics.
func execute(w *workload, seed int64, length time.Duration, trace bool) (*result, error) {
	var (
		sys    system
		tel    *telemetry.Collector
		setups []float64
	)
	for began := time.Now(); len(setups) < setupRounds || time.Since(began) < setupSpan; {
		if sys != nil {
			sys.close()
		}
		if trace {
			tel = telemetry.New()
			tel.SetMaxTraces(0)
		}
		sys = w.make(seed)
		t0 := time.Now()
		if err := sys.setup(tel); err != nil {
			sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	before, err := sys.counters()
	if err != nil {
		return nil, err
	}
	telBefore := tel.Report("", nil)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops := sys.measure(start.Add(length))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	after, err := sys.counters()
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var lat []float64
	for _, o := range ops {
		res.Attempted += o.n
		res.Failed += o.failed
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed, first: %v\n", w.name, o.failed, o.n, o.err)
			continue
		}
		lat = append(lat, float64(o.latency)/float64(time.Millisecond))
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no round succeeded (%d attempted)", len(ops))
	}
	res.Correct = res.Failed == 0
	if err := sys.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: verification failed: %v\n", w.name, err)
		res.Correct = false
	}
	sort.Float64s(lat)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d rounds, %d operations in %.2fs (%d failed), set-up %.4g s (median of %d)\n",
		w.name, seed, len(ops), res.Attempted, elapsed.Seconds(), res.Failed, median(setups), len(setups))

	if !trace {
		res.Metrics["round_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}

	n := float64(res.Attempted)
	tr := tel.Report("", nil)
	tc := diff(tr.Counters, telBefore.Counters)
	sc := diff(after, before)
	solves := float64(tc[telemetry.CounterSolves])
	var pcgNS float64
	for _, s := range tr.Solves[len(telBefore.Solves):] {
		pcgNS += float64(s.WallNS)
	}
	requests := float64(sc[telemetry.CounterCacheHits] + sc[telemetry.CounterCacheMisses] + sc[telemetry.CounterCoalesced])
	famLookups := float64(tc[telemetry.CounterFamilyAssemblyHits] + tc[telemetry.CounterFamilyAssemblyMisses])
	m := res.Metrics
	m["solves_per_op"] = metric{solves / n, "count"}
	m["pcg_iters_per_solve"] = metric{ratio(float64(tc[telemetry.CounterIterations]), solves), "count"}
	m["pcg_ms_per_solve"] = metric{ratio(pcgNS/1e6, solves), "ms"}
	m["pcg_share"] = metric{100 * pcgNS / (float64(elapsed) * float64(runtime.GOMAXPROCS(0))), "%"}
	m["warm_start_share"] = metric{100 * ratio(float64(tc[telemetry.CounterWarmStarts]), solves), "%"}
	m["assembly_hit_share"] = metric{100 * ratio(float64(tc[telemetry.CounterFamilyAssemblyHits]), famLookups), "%"}
	m["assemblies_per_op"] = metric{float64(sc["family_assemblies"]) / n, "count"}
	m["cache_hit_share"] = metric{100 * ratio(float64(sc[telemetry.CounterCacheHits]), requests), "%"}
	m["coalesced_share"] = metric{100 * ratio(float64(sc[telemetry.CounterCoalesced]), requests), "%"}
	m["batch_size_mean"] = metric{ratio(float64(sc[telemetry.CounterBatchWindowOccupancy]), float64(sc[telemetry.CounterBatchWindowFlushes])), "count"}
	m["alloc_kib_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n, "KiB"}
	m["gc_cycles_per_op"] = metric{float64(ms1.NumGC-ms0.NumGC) / n, "count"}
	return res, nil
}

func diff(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the order statistics of
// sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
