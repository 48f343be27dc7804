package main

// CLI contract tests, same pattern as thermsim/paperfigs: run() is
// exercised in-process with canned argv and its exit codes, output
// streams, and server lifecycle are asserted.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"thermalscaffold/internal/specio"
)

// syncBuffer lets the test read stderr while the server goroutine
// writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunBadFlags(t *testing.T) {
	// Every solve is cold, so -no-warm-start is not a flag: it must
	// fail like any unknown one.
	for _, flag := range []string{"-definitely-not-a-flag", "-no-warm-start"} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), []string{flag}, &out, &errb); code != 2 {
			t.Fatalf("exit %d for unknown flag %s, want 2", code, flag)
		}
		if !strings.Contains(errb.String(), "Usage") && !strings.Contains(errb.String(), "flag") {
			t.Fatalf("no usage text on stderr for %s: %q", flag, errb.String())
		}
	}
}

// TestRunClusterFlags pins that the retired -peers/-shard pair stays
// retired: every argv the sharded mode once validated now fails at
// parse time as an undefined flag, before any server starts.
func TestRunClusterFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"peers without shard", []string{"-peers", "a=http://x,b=http://y"}, "-peers"},
		{"shard without peers", []string{"-shard", "a"}, "-shard"},
		{"malformed pair", []string{"-peers", "nonsense", "-shard", "a"}, "-peers"},
		{"empty list", []string{"-peers", ",,", "-shard", "a"}, "-peers"},
		{"self missing", []string{"-peers", "a=http://x,b=http://y", "-shard", "c"}, "-peers"},
		{"single node ring", []string{"-peers", "a=http://x", "-shard", "a"}, "-peers"},
		{"bad peer URL", []string{"-peers", "a=http://x,b=:;:", "-shard", "a"}, "-peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if want := "flag provided but not defined: " + tc.want; !strings.Contains(errb.String(), want) {
				t.Fatalf("stderr %q missing %q", errb.String(), want)
			}
		})
	}
}

func TestRunBadAddr(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "999.999.999.999:1"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d for unlistenable address, want 1", code)
	}
}

func TestRunExample(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-example"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	req, err := specio.ParseEval(out.Bytes())
	if err != nil {
		t.Fatalf("-example output does not parse as an eval request: %v", err)
	}
	if _, err := specio.BuildEval(req); err != nil {
		t.Fatalf("-example output does not build: %v", err)
	}
}

var addrRE = regexp.MustCompile(`serving on http://([^/\s]+)`)

// TestRunBatchWindowFlags boots the server with micro-batching and
// the assembly cache enabled, fires two same-family requests through
// the window, and asserts the window/assembly counters surface on
// /metrics — the CLI contract for -batch-window, -max-batch and
// -assembly-cache.
func TestRunBatchWindowFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errb := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "1",
			"-batch-window", "20ms", "-max-batch", "4", "-assembly-cache", "8",
			"-drain", "10s",
		}, &out, errb)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(errb.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %q", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	example := specio.ExampleEval()
	example.Stack.Tiers = 2
	post := func(power float64) {
		req := example
		req.Stack.UniformPower = power
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(base+"/v1/eval", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var resp specio.EvalResponse
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", res.StatusCode, resp.Error)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(20 + float64(i))
		}(i)
	}
	wg.Wait()

	res, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]float64 `json:"counters"`
	}
	err = json.NewDecoder(res.Body).Decode(&metrics)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"batch_window_flushes", "batch_window_occupancy", "family_assembly_hits", "family_assembly_misses"} {
		if _, ok := metrics.Counters[key]; !ok {
			t.Fatalf("/metrics counters missing %q: %v", key, metrics.Counters)
		}
	}
	if metrics.Counters["batch_window_flushes"] < 1 {
		t.Fatalf("batch_window_flushes = %v after windowed requests, want >= 1", metrics.Counters["batch_window_flushes"])
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after graceful shutdown, want 0: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after context cancellation")
	}
}

// TestRunServeLifecycle boots the real server on an ephemeral port,
// POSTs the example request twice (solve, then cache hit), checks
// /healthz and /metrics, and shuts down via context cancellation —
// asserting the drain message, a clean exit, and the -report file.
func TestRunServeLifecycle(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "report.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errb := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "1", "-cache", "16",
			"-drain", "10s", "-report", reportPath,
		}, &out, errb)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(errb.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %q", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	example := specio.ExampleEval()
	example.Stack.Tiers = 2 // keep the test solve small
	raw, err := json.Marshal(example)
	if err != nil {
		t.Fatal(err)
	}
	post := func() specio.EvalResponse {
		res, err := http.Post(base+"/v1/eval", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var resp specio.EvalResponse
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", res.StatusCode, resp.Error)
		}
		return resp
	}
	first := post()
	if first.Cached || first.Key == "" {
		t.Fatalf("first response: cached=%v key=%q", first.Cached, first.Key)
	}
	second := post()
	if !second.Cached || second.PeakT != first.PeakT {
		t.Fatalf("second response not a cache hit of the first: cached=%v peak %v vs %v",
			second.Cached, second.PeakT, first.PeakT)
	}

	for _, ep := range []string{"/healthz", "/metrics"} {
		res, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", ep, res.StatusCode)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after graceful shutdown, want 0: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after context cancellation")
	}
	if s := errb.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "drained") {
		t.Fatalf("drain messages missing from stderr: %q", s)
	}
	rep, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("-report file not written: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(rep, &parsed); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if tool, _ := parsed["tool"].(string); tool != "thermserve" {
		t.Fatalf("report tool = %v", parsed["tool"])
	}
}
