package main

// CLI contract tests, same pattern as thermsim/paperfigs: run() is
// exercised in-process with canned argv, asserting usage/exit codes
// and that cancellation propagates into the evaluation.

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func runCLI(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestScaffoldBadFlags(t *testing.T) {
	code, _, errs := runCLI(t, context.Background(), "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d for unknown flag, want 2", code)
	}
	if !strings.Contains(errs, "Usage") && !strings.Contains(errs, "flag") {
		t.Fatalf("no usage text on stderr: %q", errs)
	}
}

func TestScaffoldBadEnums(t *testing.T) {
	cases := map[string][]string{
		"design":   {"-design", "pentium"},
		"strategy": {"-strategy", "prayer"},
		"sink":     {"-sink", "icecube"},
	}
	for name, args := range cases {
		code, _, errs := runCLI(t, context.Background(), args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errs, "unknown") {
			t.Errorf("%s: stderr %q does not name the unknown value", name, errs)
		}
	}
}

func TestScaffoldBudgetRun(t *testing.T) {
	code, out, errs := runCLI(t, context.Background(),
		"-design", "rocket", "-tiers", "1", "-grid", "4", "-budget", "0.2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"design Rocket", "strategy scaffolding", "sink"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScaffoldCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, errs := runCLI(t, ctx,
		"-design", "rocket", "-tiers", "1", "-grid", "4", "-budget", "0.2")
	if code == 0 {
		t.Fatal("cancelled evaluation exited 0")
	}
	if !strings.Contains(errs, "cancel") {
		t.Fatalf("stderr does not mention cancellation: %q", errs)
	}
}

func TestScaffoldSweepBadTiers(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		code, out, errs := runCLI(t, context.Background(), "-sweep", "-tiers", n, "-grid", "4")
		if code != 1 {
			t.Errorf("-sweep -tiers %s: exit %d, want 1", n, code)
		}
		if !strings.Contains(errs, "bad maxN") {
			t.Errorf("-sweep -tiers %s: stderr %q does not name the bad tier count", n, errs)
		}
		if strings.Contains(out, "supported tiers") {
			t.Errorf("-sweep -tiers %s: reported supported tiers for an empty sweep:\n%s", n, out)
		}
	}
}
