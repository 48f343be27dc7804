// Package experiments regenerates every table and figure of the
// paper's evaluation from this repository's models and solvers. Each
// Fig*/Table* function returns structured results plus renderable
// tables/series; cmd/paperfigs prints them and the root-level
// benchmarks time them. EXPERIMENTS.md records the paper-vs-measured
// comparison for each.
package experiments

import (
	"context"
	"math"

	"thermalscaffold/internal/materials"
	"thermalscaffold/internal/report"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/telemetry"
)

// Fig4Result is the diamond conductivity-vs-grain-size study.
type Fig4Result struct {
	Curve   *report.Series // grain size (nm) → k (W/m/K)
	Anchors *report.Table
	// K160nm is the modeled film conductivity at the 160 nm grain —
	// the paper's 105.7 W/m/K anchor.
	K160nm float64
	// KLargeGrain is the modeled conductivity at 1.9 µm grains.
	KLargeGrain float64
}

// Fig4 regenerates the in-plane thermal conductivity of
// nanocrystalline diamond by grain size (paper Fig. 4) with the
// experimental film points overlaid.
func Fig4() *Fig4Result {
	m := materials.DefaultDiamondModel()
	curve := report.NewSeries("fig4-diamond-conductivity", "grain_nm", "k_W_per_mK")
	for d := 1e-9; d <= 10e-6; d *= 1.122 { // ~20 points per decade
		curve.Add(d/1e-9, m.Conductivity(d))
	}
	anchors := report.NewTable("Fig. 4 anchors (model vs experimental films)",
		"grain (nm)", "growth T (°C)", "model k (W/m/K)", "source")
	for _, s := range materials.ExperimentalFilms() {
		anchors.AddRow(s.GrainSize/1e-9, s.GrowthTempC, m.Conductivity(s.GrainSize), s.Source)
	}
	return &Fig4Result{
		Curve:       curve,
		Anchors:     anchors,
		K160nm:      m.Conductivity(160e-9),
		KLargeGrain: m.Conductivity(1.9e-6),
	}
}

// Fig5Result is the dielectric-constant study.
type Fig5Result struct {
	Literature *report.Table
	// PorosityCurve: air volume fraction → effective permittivity of
	// the diamond film (the Fig. 5 inset, Maxwell-Garnett).
	PorosityCurve *report.Series
	// PorosityForEps4 is the air fraction that brings the bulk film
	// to the paper's pessimistic ε = 4.
	PorosityForEps4 float64
}

// Fig5 regenerates the dielectric-constant literature review and the
// porosity inset (paper Fig. 5).
func Fig5() (*Fig5Result, error) {
	lit := report.NewTable("Fig. 5: measured dielectric constants of polycrystalline diamond",
		"grain (nm)", "epsilon", "source")
	for _, s := range materials.DielectricLiterature() {
		lit.AddRow(s.GrainSize/1e-9, s.Epsilon, s.Source)
	}
	curve := report.NewSeries("fig5-porosity-inset", "air_fraction", "epsilon")
	for f := 0.0; f <= 1.0+1e-9; f += 0.05 {
		curve.Add(f, materials.PorousDiamondEpsilon(materials.EpsDiamondBulk, f))
	}
	p, err := materials.PorosityForEpsilon(materials.EpsDiamondBulk, materials.EpsThermalDielectric)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Literature: lit, PorosityCurve: curve, PorosityForEps4: p}, nil
}

// nearlyEqual is a helper for experiment self-checks.
func nearlyEqual(a, b, relTol float64) bool {
	if b == 0 {
		return math.Abs(a) < relTol
	}
	return math.Abs(a-b)/math.Abs(b) <= relTol
}

// Workers is the worker-goroutine count handed to every solver
// invocation in this package (0 = one per CPU core, 1 = the exact
// serial legacy path; see solver.Options.Workers). The figure sweeps
// spend nearly all their time in steady/transient solves, so this is
// the package's throughput knob — cmd/paperfigs exposes it as
// -workers.
var Workers int

// Ctx, when non-nil, cancels every solver invocation in this package:
// each inner solve checks it per iteration, so a figure sweep stops
// within one solver iteration of cancellation and surfaces a typed
// *solver.ConvergenceError wrapping ctx.Err(). cmd/paperfigs wires
// the process signal context here.
var Ctx context.Context

// Telemetry, when non-nil, collects per-solve traces, counters, and
// phase timings from every solver invocation in this package —
// cmd/paperfigs exposes it through -report.
var Telemetry *telemetry.Collector

// solverOpts is the shared solver configuration for ad-hoc stack
// solves inside experiments.
func solverOpts() solver.Options {
	return solverOptsTol(1e-6)
}

// solverOptsTol is solverOpts with an explicit tolerance — the single
// place experiment solves pick up MaxIter, Workers, Ctx, and
// Telemetry, so a stray literal can no longer drop the iteration cap
// (hetero.go once passed a Tol-only Options at 1e-10 and silently ran
// with the solver's 20000-iteration default, a quarter of the
// intended cap). Every experiment solves on the default multigrid:
// z-line has no in-plane coarse correction and stagnates on
// Misalignment's 0.1 µm-cell stacks.
func solverOptsTol(tol float64) solver.Options {
	return solver.Options{
		Tol: tol, MaxIter: 80000, Workers: Workers, Ctx: Ctx, Telemetry: Telemetry,
	}
}
