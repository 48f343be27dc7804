package rom_test

// StackScorer is the rc tier's entry point for the placement loops:
// these tests pin its contract directly — scores must match a direct
// Reduce+Eval of the built stack problem bitwise, a single shared map
// must replicate exactly, the certified bound must hold against a
// full solve, and malformed inputs must error.

import (
	"math"
	"strings"
	"testing"

	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/rom"
	"thermalscaffold/internal/stack"
)

// scorerSpec is a small 2-tier stack with a deliberately uneven power
// split so the two tiers are distinguishable in the score.
func scorerSpec(nx, ny, tiers int) *stack.Spec {
	plane := nx * ny
	maps := make([][]float64, tiers)
	for t := range maps {
		pm := make([]float64, plane)
		for i := range pm {
			pm[i] = 40e4 + 5e4*float64(t) + 1e3*float64(i%7)
		}
		maps[t] = pm
	}
	return &stack.Spec{
		DieW: 400e-6, DieH: 400e-6,
		Tiers: tiers, NX: nx, NY: ny,
		PowerMaps:     maps,
		BEOL:          stack.ScaffoldedBEOL(),
		Sink:          heatsink.TwoPhase(),
		MemoryPerTier: true,
	}
}

// TestStackScorerCertifiedAgainstFullSolve runs on a plain stack and
// on one with an uneven pillar field, the kind of stack a placement
// loop scores.
func TestStackScorerCertifiedAgainstFullSolve(t *testing.T) {
	pillared := scorerSpec(8, 8, 2)
	pillared.Pillars = stack.NewPillarField(8, 8)
	for i := range pillared.Pillars.Coverage {
		pillared.Pillars.Coverage[i] = 0.05 * float64(i%5)
	}
	for name, spec := range map[string]*stack.Spec{"plain": scorerSpec(8, 8, 2), "pillars": pillared} {
		t.Run(name, func(t *testing.T) { checkScorerCertified(t, spec) })
	}
}

func checkScorerCertified(t *testing.T, spec *stack.Spec) {
	scorer, err := rom.NewStackScorer(spec, rom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scorer.Model().NumCells(), len(p.Q); got != want {
		t.Fatalf("model has %d cells, spec problem has %d", got, want)
	}
	res, err := scorer.Score(spec.PowerMaps)
	if err != nil {
		t.Fatal(err)
	}
	// The scorer paints the same source field stack.Build does, so its
	// score must equal a direct Eval of the built problem bitwise.
	direct, err := scorer.Model().Eval(p.Q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakT != direct.PeakT || res.Bound != direct.Bound {
		t.Fatalf("score (%.17g ± %.17g) differs from direct eval (%.17g ± %.17g)",
			res.PeakT, res.Bound, direct.PeakT, direct.Bound)
	}
	// Hard contract against the full solver, budgeting its tolerance
	// via the same certificate machinery.
	full := fullSolve(t, p)
	cert, err := scorer.Model().Certify(p.Q, full.T)
	if err != nil {
		t.Fatal(err)
	}
	fullPeak := full.T[0]
	for _, v := range full.T {
		if v > fullPeak {
			fullPeak = v
		}
	}
	if d := math.Abs(res.PeakT - fullPeak); d > res.Bound+cert.PeakBound() {
		t.Fatalf("peak error %.3g exceeds certified %.3g + %.3g", d, res.Bound, cert.PeakBound())
	}
	for g := range res.BlockBound {
		if res.BlockBound[g] > res.Bound+1e-12*res.Bound {
			t.Fatalf("block %d bound %.3g exceeds domain bound %.3g", g, res.BlockBound[g], res.Bound)
		}
		if cb := cert.BlockBound(g); cb < 0 || math.IsNaN(cb) {
			t.Fatalf("certificate block %d bound %g", g, cb)
		}
	}
}

func TestStackScorerSharedMapReplicates(t *testing.T) {
	spec := scorerSpec(6, 5, 3)
	pm := spec.PowerMaps[0]
	scorer, err := rom.NewStackScorer(spec, rom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := scorer.Score([][]float64{pm})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := scorer.Score([][]float64{pm, pm, pm})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(shared.T(), explicit.T()) || shared.Bound != explicit.Bound {
		t.Fatal("shared map does not replicate to per-tier maps bitwise")
	}
}

func TestStackScorerErrors(t *testing.T) {
	spec := scorerSpec(6, 5, 3)
	scorer, err := rom.NewStackScorer(spec, rom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := spec.PowerMaps[0]
	if _, err := scorer.Score([][]float64{pm, pm}); err == nil ||
		!strings.Contains(err.Error(), "power maps") {
		t.Fatalf("2 maps for 3 tiers: got %v", err)
	}
	if _, err := scorer.Score([][]float64{pm[:7]}); err == nil ||
		!strings.Contains(err.Error(), "cells") {
		t.Fatalf("short plane: got %v", err)
	}
	bad := scorerSpec(0, 5, 2) // invalid grid must fail at Build
	if _, err := rom.NewStackScorer(bad, rom.Options{}); err == nil {
		t.Fatal("invalid spec must error")
	}
}

// TestROMEvalParallelPath drives Eval above the goroutine-chunking
// floor (2^14 cells). The decomposition is fixed regardless of how
// chunks are scheduled, so the only observable difference from small
// grids must be speed: results stay finite, bitwise repeatable, and
// certified against the operator.
func TestROMEvalParallelPath(t *testing.T) {
	p := romBenchStack(t, 24) // 24×24×38 = 21888 cells
	m, err := rom.Reduce(p, rom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Eval(p.Q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PeakT) || math.IsNaN(res.Bound) || res.Bound < 0 {
		t.Fatalf("peak %g bound %g", res.PeakT, res.Bound)
	}
	res2, err := m.Eval(p.Q)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(res.T(), res2.T()) || res.Bound != res2.Bound || res.RelResidual != res2.RelResidual {
		t.Fatal("chunked eval not bitwise repeatable")
	}
	cert, err := m.Certify(p.Q, res.T())
	if err != nil {
		t.Fatal(err)
	}
	// Certify runs the general 7-point apply on the same field the
	// fast in-Eval defect certified; the two residual paths must agree
	// to rounding.
	if d := math.Abs(cert.PeakBound() - res.Bound); d > 1e-9*res.Bound {
		t.Fatalf("apply-path bound %.17g vs fast-path bound %.17g", cert.PeakBound(), res.Bound)
	}
}
