// Command paperfigs regenerates the paper's tables and figures from
// this repository's models and simulators.
//
// Usage:
//
//	paperfigs [-quick] [-fig ID] [-outdir DIR] [-workers N] [-report out.json]
//
// where ID is one of: 2b, 2c, 3, 4, 5, 7a, 7b, 9, 10, 11, 12, table1,
// ablations, extras (macro cooling, misalignment, tier-resistance
// share, heterogeneous tiers, power-gated transient, solver
// cross-check), or "all" (default).
//
// -report writes a machine-readable JSON run report with per-figure
// wall-clock phases, solver counters, and per-solve traces ("-" =
// stdout). Ctrl-C cancels the sweep: the active solve stops within
// one iteration and the run exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"thermalscaffold/internal/core"
	"thermalscaffold/internal/design"
	"thermalscaffold/internal/experiments"
	"thermalscaffold/internal/report"
	"thermalscaffold/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: it parses args, regenerates the
// selected figures, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run at reduced resolution for a fast pass")
	fig := fs.String("fig", "all", "figure/table to regenerate (2b, 2c, 3, 4, 5, 7a, 7b, 9, 10, 11, 12, table1, ablations, extras, all)")
	outdir := fs.String("outdir", "", "when set, also write each series/table to files in this directory")
	workers := fs.Int("workers", 0, "solver worker goroutines (0 = one per CPU core, 1 = serial); grids under about 40 000 cells run on one goroutine at any count")
	reportPath := fs.String("report", "", "write a JSON run report (per-figure timings, solver counters, traces) to this path; \"-\" = stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	experiments.Workers = *workers
	experiments.Ctx = ctx
	var tel *telemetry.Collector
	if *reportPath != "" {
		tel = telemetry.New()
	}
	experiments.Telemetry = tel
	defer func() {
		experiments.Ctx = nil
		experiments.Telemetry = nil
	}()

	o := experiments.Options{Quick: *quick}
	sel := strings.ToLower(*fig)
	exitCode := 0
	runFig := func(id string) bool { return exitCode == 0 && (sel == "all" || sel == id) }
	fail := func(id string, err error) {
		fmt.Fprintf(stderr, "paperfigs: %s: %v\n", id, err)
		exitCode = 1
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fail("outdir", err)
		}
	}
	save := func(name, content string) {
		if *outdir == "" || exitCode != 0 {
			return
		}
		if err := os.WriteFile(filepath.Join(*outdir, name), []byte(content), 0o644); err != nil {
			fail(name, err)
		}
	}
	saveSeries := func(s *report.Series) { save(s.Name+".csv", s.String()) }

	if runFig("4") {
		stop := tel.Phase("fig4")
		r := experiments.Fig4()
		stop()
		fmt.Fprint(stdout, r.Anchors.String())
		fmt.Fprintf(stdout, "modeled k(160 nm grain) = %.1f W/m/K (paper: 105.7)\n", r.K160nm)
		fmt.Fprintf(stdout, "modeled k(1.9 µm grain) = %.0f W/m/K (paper: ≥500 conservative)\n\n", r.KLargeGrain)
		fmt.Fprintln(stdout, r.Curve.String())
		saveSeries(r.Curve)
		save("fig4-anchors.txt", r.Anchors.String())
	}
	if runFig("5") {
		stop := tel.Phase("fig5")
		r, err := experiments.Fig5()
		stop()
		if err != nil {
			fail("fig5", err)
		} else {
			fmt.Fprint(stdout, r.Literature.String())
			fmt.Fprintf(stdout, "porosity for ε=4: %.2f air fraction\n\n", r.PorosityForEps4)
			fmt.Fprintln(stdout, r.PorosityCurve.String())
			saveSeries(r.PorosityCurve)
			save("fig5-literature.txt", r.Literature.String())
		}
	}
	if runFig("7a") {
		stop := tel.Phase("fig7a")
		r, err := experiments.Fig7a(o)
		stop()
		if err != nil {
			fail("fig7a", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("fig7a-table.txt", r.Table.String())
		}
	}
	if runFig("7b") {
		stop := tel.Phase("fig7b")
		r := experiments.Fig7b()
		stop()
		fmt.Fprintln(stdout, r.Series.String())
		saveSeries(r.Series)
	}
	if runFig("3") {
		stop := tel.Phase("fig3")
		r, err := experiments.Fig3(0, 0)
		stop()
		if err != nil {
			fail("fig3", err)
		} else {
			fmt.Fprintf(stdout, "Fig. 3: single-pillar 3 K cooling reach: %.1f µm (ultra-low-k) vs %.1f µm (thermal dielectric)\n\n",
				r.ReachULK*1e6, r.ReachTD*1e6)
			fmt.Fprintln(stdout, r.WithoutTD.String())
			fmt.Fprintln(stdout, r.WithTD.String())
			saveSeries(r.WithoutTD)
			saveSeries(r.WithTD)
		}
	}
	if runFig("2b") {
		stop := tel.Phase("fig2b")
		r, err := experiments.Fig2b(o)
		stop()
		if err != nil {
			fail("fig2b", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("fig2b-table.txt", r.Table.String())
		}
	}
	if runFig("2c") {
		stop := tel.Phase("fig2c")
		r, err := experiments.Fig2c(o)
		stop()
		if err != nil {
			fail("fig2c", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("fig2c-table.txt", r.Table.String())
		}
	}
	if runFig("9") {
		stop := tel.Phase("fig9")
		r, err := experiments.Fig9(o, 0)
		stop()
		if err != nil {
			fail("fig9", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("fig9-table.txt", r.Table.String())
			for _, d := range design.All() {
				for _, st := range []core.Strategy{core.Conventional3D, core.Scaffolding} {
					s := r.Curves[d.Name][st]
					fmt.Fprintln(stdout, s.String())
					saveSeries(s)
				}
			}
		}
	}
	if runFig("10") {
		stop := tel.Phase("fig10")
		r, err := experiments.Fig10(o, 0)
		stop()
		if err != nil {
			fail("fig10", err)
		} else {
			fmt.Fprintln(stdout, r.Conventional.String())
			fmt.Fprintln(stdout, r.Scaffolding.String())
			save("fig10a-table.txt", r.Conventional.String())
			save("fig10b-table.txt", r.Scaffolding.String())
		}
	}
	if runFig("11") {
		stop := tel.Phase("fig11")
		r, err := experiments.Fig11(o, 0)
		stop()
		if err != nil {
			fail("fig11", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("fig11-table.txt", r.Table.String())
		}
	}
	if runFig("12") {
		stop := tel.Phase("fig12")
		r, err := experiments.Fig12(0, 0)
		stop()
		if err != nil {
			fail("fig12", err)
		} else {
			fmt.Fprintf(stdout, "Fig. 12: peak reduction — single pillar + thermal dielectric: %.1f%%; 4x pillar block, ultra-low-k: %.1f%% (paper: 40%% vs 32%%)\n\n",
				r.SinglePillarTDReduction, r.FourPillarULKReduction)
			fmt.Fprintln(stdout, r.Curve.String())
			saveSeries(r.Curve)
		}
	}
	if runFig("table1") {
		stop := tel.Phase("table1")
		r, err := experiments.TableI(o)
		stop()
		if err != nil {
			fail("table1", err)
		} else {
			fmt.Fprintln(stdout, r.Table.String())
			save("table1.txt", r.Table.String())
		}
	}
	if runFig("ablations") {
		stop := tel.Phase("ablations")
		r, err := experiments.Ablations(o)
		stop()
		if err != nil {
			fail("ablations", err)
		} else {
			fmt.Fprintln(stdout, r.PillarSize.String())
			fmt.Fprintln(stdout, r.DielectricGrade.String())
			fmt.Fprintf(stdout, "scheduling benefit on the conventional flow: %.1f K\n", r.SchedulingGainK)
			fmt.Fprintf(stdout, "interleaved memory sub-layer cost at 8 tiers: %.1f K\n\n", r.MemoryLayerK)
			save("ablation-pillar-size.txt", r.PillarSize.String())
			save("ablation-dielectric-grade.txt", r.DielectricGrade.String())
		}
	}
	if runFig("extras") {
		stop := tel.Phase("extras")
		extras(o, stdout, fail)
		stop()
	}

	if tel != nil && *reportPath != "" {
		if err := tel.WriteReportFile(*reportPath, "paperfigs", args); err != nil {
			fail("report", err)
		}
	}
	return exitCode
}

// extras runs the beyond-the-figures observations bundle.
func extras(o experiments.Options, stdout io.Writer, fail func(string, error)) {
	mc, err := experiments.MacroCooling(0, 0)
	if err != nil {
		fail("macro", err)
		return
	}
	fmt.Fprintf(stdout, "Observation 4b — 25 µm macro rise: %.1f K (ultra-low-k) vs %.1f K (thermal dielectric); paper: 15 °C vs 5 °C\n",
		mc.RiseULK, mc.RiseTD)
	mis, err := experiments.Misalignment(0, 0)
	if err != nil {
		fail("misalign", err)
		return
	}
	fmt.Fprintf(stdout, "Observation 4c — tolerable per-tier pillar misalignment (≤3 K): %.0f nm (ultra-low-k) vs %.0f nm (thermal dielectric); paper: 300 nm vs 1 µm\n",
		mis.TolULK*1e9, mis.TolTD*1e9)
	share, err := experiments.TierResistanceShare(0)
	if err != nil {
		fail("share", err)
		return
	}
	fmt.Fprintf(stdout, "Sec. I — tier-stack share of Tj−T0 in a 3-tier IC with advanced heatsink: %.0f%% (paper: 85%%)\n",
		100*share)
	het, err := experiments.Heterogeneous(o, 8)
	if err != nil {
		fail("hetero", err)
		return
	}
	fmt.Fprintf(stdout, "Heterogeneous 8-tier stack — per-tier pillar patterns vs aligned columns: %.1f°C vs %.1f°C (misalignment costs %.1f K)\n",
		het.TMaxPerTierC, het.TMaxAlignedC, het.MisalignmentCostK)
	gt, err := experiments.GatedTransient(0, 0)
	if err != nil {
		fail("gated", err)
		return
	}
	fmt.Fprintf(stdout, "Power-gated rotation (transient) vs all-on steady state: %.1f°C vs %.1f°C (gating buys %.1f K)\n",
		gt.PeakRotatedC, gt.SteadyAllOnC, gt.GatingBenefitK)
	cc, err := experiments.SolverCrossCheck(o)
	if err != nil {
		fail("crosscheck", err)
		return
	}
	fmt.Fprintf(stdout, "Solver cross-check (FVM vs spectral direct, 12-tier conventional stack): %.2f°C vs %.2f°C (Δ=%.2g K)\n",
		cc.FVMPeakC, cc.SpectralPeakC, cc.DeltaK)
}
