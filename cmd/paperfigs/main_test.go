package main

// CLI contract tests for paperfigs: flag rejection, the -report flow
// on a cheap figure (Fig. 4 needs no thermal solve, so the test stays
// fast while still exercising the phase plumbing) and a stable order
// for the Fig. 9 series.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
)

func runCLI(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownFlagRejected(t *testing.T) {
	code, _, stderr := runCLI(t, context.Background(), "-no-such-flag")
	if code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr, "flag") {
		t.Fatalf("stderr: %q", stderr)
	}
}

func TestFig4WithReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	code, stdout, stderr := runCLI(t, context.Background(), "-fig", "4", "-report", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "modeled k(160 nm grain)") {
		t.Fatalf("fig4 output missing: %q", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep["tool"] != "paperfigs" {
		t.Fatalf("tool = %v", rep["tool"])
	}
	phases, ok := rep["phases"].([]any)
	if !ok || len(phases) != 1 {
		t.Fatalf("phases = %v, want exactly [fig4]", rep["phases"])
	}
	p := phases[0].(map[string]any)
	if p["name"] != "fig4" || p["count"].(float64) != 1 {
		t.Fatalf("unexpected phase: %v", p)
	}
}

// TestGlobalsRestored: run() must clear the package-level experiment
// hooks on exit so a second in-process run (or test) starts clean.
func TestGlobalsRestored(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, context.Background(), "-fig", "4", "-report", filepath.Join(dir, "r.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// A plain run without -report must not inherit the collector.
	code, _, stderr = runCLI(t, context.Background(), "-fig", "4")
	if code != 0 {
		t.Fatalf("second run: exit %d: %s", code, stderr)
	}
}

// TestFig9SeriesOrder: the six Fig. 9 series print in design.All()
// order, conventional before scaffolding within each design, and
// repeated runs print the same bytes. The series live in a map of
// maps, so ranging over it would shuffle them from run to run; three
// runs make a shuffled order very unlikely to slip through.
func TestFig9SeriesOrder(t *testing.T) {
	var want []string
	for _, d := range design.All() {
		for _, s := range []core.Strategy{core.Conventional3D, core.Scaffolding} {
			want = append(want, fmt.Sprintf("fig9-%s-%s", d.Name, s))
		}
	}
	var first string
	for run := 0; run < 3; run++ {
		code, stdout, stderr := runCLI(t, context.Background(), "-quick", "-fig", "9")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		var got []string
		for _, line := range strings.Split(stdout, "\n") {
			if name, ok := strings.CutPrefix(line, "# "); ok && strings.HasPrefix(name, "fig9-") {
				got = append(got, name)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d: fig9 series order:\n%s\nwant:\n%s", run, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if run == 0 {
			first = stdout
		} else if stdout != first {
			t.Fatalf("run %d printed different bytes than run 0", run)
		}
	}
}
