package main

// thermbench contract tests: flag validation exits 2 with a usage
// message, the workload is deterministic per seed, and the JSON
// report's stable fields (everything except measured timings) pin to
// a golden against a canned stub server.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"thermalscaffold/internal/specio"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// stubServer answers every eval/evalbatch with a canned 200 —
// alternating cached true/false so the report's hit counting is
// exercised without running a solver.
func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	n := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		cached := n%2 == 0
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		var body any
		switch r.URL.Path {
		case "/v1/eval":
			body = specio.EvalResponse{Key: strings.Repeat("ab", 32), Mode: "steady", Cached: cached}
		case "/v1/evalbatch":
			body = specio.EvalBatchResponse{Mode: "steady", Items: []specio.EvalResponse{
				{Key: strings.Repeat("cd", 32), Mode: "steady", Cached: cached},
			}}
		default:
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(body)
	}))
	t.Cleanup(hs.Close)
	return hs
}

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestFlagValidation: every malformed invocation exits 2 and says
// why on stderr, without touching the network.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no targets", nil, "-targets is required"},
		{"bad target URL", []string{"-targets", "not a url"}, "bad target"},
		{"empty target list", []string{"-targets", ",,"}, "no URLs"},
		{"negative n", []string{"-targets", "http://x", "-n", "-5"}, "must be positive"},
		{"zero concurrency", []string{"-targets", "http://x", "-concurrency", "0"}, "must be positive"},
		{"reuse out of range", []string{"-targets", "http://x", "-reuse", "1.5"}, "must be in [0,1]"},
		{"unknown mix mode", []string{"-targets", "http://x", "-mix", "turbo=1"}, "unknown mode"},
		{"mix without weight", []string{"-targets", "http://x", "-mix", "steady=0,rc=0"}, "no weight"},
		{"mix duplicate mode", []string{"-targets", "http://x", "-mix", "steady=1,steady=2"}, "listed twice"},
		{"mix not key=value", []string{"-targets", "http://x", "-mix", "steady"}, "want mode=weight"},
		{"negative rate", []string{"-targets", "http://x", "-rate", "-1"}, "must be ≥ 0"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runBench(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if stdout != "" {
				t.Fatalf("validation failure wrote to stdout: %s", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q missing %q", stderr, tc.want)
			}
		})
	}
}

// TestReportGolden runs a fixed workload against the stub and pins
// the report's deterministic fields (timings zeroed, the stub URL
// masked).
func TestReportGolden(t *testing.T) {
	hs := stubServer(t)
	code, stdout, stderr := runBench(t,
		"-targets", hs.URL,
		"-n", "40", "-concurrency", "1", "-reuse", "0.75",
		"-mix", "steady=0.6,rc=0.2,batch=0.2", "-seed", "7",
	)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not JSON (%v): %s", err, stdout)
	}
	// Sanity on the measured side before zeroing it.
	if rep.ThroughputRPS <= 0 || rep.DurationNS <= 0 {
		t.Fatalf("report measured nothing: %+v", rep)
	}
	if rep.P50NS <= 0 || rep.P99NS < rep.P50NS {
		t.Fatalf("bad percentiles: p50=%d p99=%d", rep.P50NS, rep.P99NS)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("stub alternates cached responses but the report counted none: %+v", rep)
	}
	rep.Targets = []string{"<stub>"}
	rep.DurationNS, rep.ThroughputRPS, rep.P50NS, rep.P99NS = 0, 0, 0, 0
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/thermbench/ -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestColdFamMode: coldfam jobs are guaranteed cold misses within one
// family — every body is unique (no reuse even at a high
// -reuse ratio), all hit /v1/eval at full fidelity, and they differ
// from each other only in power.
func TestColdFamMode(t *testing.T) {
	mix, err := parseMix("coldfam=1")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := buildJobs([]string{"http://x"}, 12, 0.95, mix, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var families []string
	for i, j := range jobs {
		if j.mode != "coldfam" || j.path != "/v1/eval" {
			t.Fatalf("job %d: mode=%q path=%q", i, j.mode, j.path)
		}
		if seen[string(j.body)] {
			t.Fatalf("job %d repeats an earlier body — coldfam powers must never be reused", i)
		}
		seen[string(j.body)] = true
		req, err := specio.ParseEval(j.body)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if req.Fidelity == specio.FidelityRC {
			t.Fatalf("job %d: coldfam must run at full fidelity", i)
		}
		req.Stack.UniformPower = 0
		fam, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, string(fam))
	}
	for i := 1; i < len(families); i++ {
		if families[i] != families[0] {
			t.Fatalf("job %d left the shared family: %s vs %s", i, families[i], families[0])
		}
	}
	// Mixed with pooled modes, coldfam powers stay disjoint from the
	// reuse pool.
	mixed, err := parseMix("steady=0.5,coldfam=0.5")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err = buildJobs([]string{"http://x"}, 40, 0.9, mixed, 7)
	if err != nil {
		t.Fatal(err)
	}
	steadyBodies := map[string]bool{}
	for _, j := range jobs {
		if j.mode == "steady" {
			steadyBodies[string(j.body)] = true
		}
	}
	for i, j := range jobs {
		if j.mode == "coldfam" && steadyBodies[string(j.body)] {
			t.Fatalf("job %d: coldfam body collides with the steady pool", i)
		}
	}
}

// TestSeedDeterminism: the same seed builds byte-identical schedules;
// a different seed does not.
func TestSeedDeterminism(t *testing.T) {
	mix, err := parseMix("steady=0.6,rc=0.2,batch=0.2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildJobs([]string{"http://x", "http://y"}, 60, 0.8, mix, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildJobs([]string{"http://x", "http://y"}, 60, 0.8, mix, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].target != b[i].target || a[i].mode != b[i].mode || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	c, err := buildJobs([]string{"http://x", "http://y"}, 60, 0.8, mix, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !bytes.Equal(a[i].body, c[i].body) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 and seed 8 built identical workloads")
	}
}

// TestOpenLoopRate: with -rate set the run takes at least the
// scheduled span (open-loop arrivals are paced, not as-fast-as-
// possible).
func TestOpenLoopRate(t *testing.T) {
	hs := stubServer(t)
	code, stdout, stderr := runBench(t,
		"-targets", hs.URL, "-n", "20", "-concurrency", "4", "-rate", "100", "-seed", "3",
	)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	// 20 requests at 100 req/s: the last is released at t=190ms.
	if rep.DurationNS < int64(150e6) {
		t.Fatalf("open-loop run finished in %dms — pacing did not happen", rep.DurationNS/1e6)
	}
	if rep.RateRPS != 100 {
		t.Fatalf("report dropped the rate: %+v", rep)
	}
}

// TestErrorExit: a target that refuses every request yields exit 1
// and a nonzero error count in the report.
func TestErrorExit(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	code, stdout, _ := runBench(t, "-targets", hs.URL, "-n", "5", "-concurrency", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 5 {
		t.Fatalf("errors %d, want 5", rep.Errors)
	}
}
