// Command thermsim runs a steady-state 3D-IC thermal simulation from
// a JSON stack description and prints the peak and per-tier
// temperatures.
//
// Usage:
//
//	thermsim -spec stack.json
//	thermsim -spec stack.json -precond multigrid
//	thermsim -spec stack.json -report run.json
//	thermsim -spec stack.json -debug-addr localhost:6060
//	thermsim -spec stack.json -dtm    # closed-loop DTM burst experiment
//	thermsim -example          # print an example spec and exit
//
// -dtm replaces the steady solve with a closed-loop dynamic
// thermal management experiment (internal/sched.SimulateDTM): a
// burst/idle demand trace is integrated twice — open loop, then with
// the DTM controller throttling power whenever the predicted peak
// crosses -dtm-limit — and the peaks, violation time, and throttle
// events are printed side by side.
//
// Spec format (JSON): see internal/specio. "beol" is "conventional",
// "scaffolded", or the "paper-*" variants using the published Fig. 7a
// values; "sink" is "twophase", "microfluidic", "coldplate", or
// "microchannel" (Tuckerman-Pease geometry model). A non-null
// "power_map_w_per_cm2" (nx·ny values, row-major) overrides the
// uniform density.
//
// -report writes a machine-readable JSON run report (solve traces,
// counters, phase timings; "-" = stdout). -debug-addr serves pprof
// and expvar on the given address for live profiling of long solves.
// Ctrl-C cancels the solve gracefully: the solver notices within one
// iteration and exits non-zero with a typed cancellation error.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"

	"thermalscaffold/internal/report"
	"thermalscaffold/internal/rom"
	"thermalscaffold/internal/sched"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
	"thermalscaffold/internal/units"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point: it parses args, runs the
// simulation, and returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "path to the JSON stack spec")
	example := fs.Bool("example", false, "print an example spec and exit")
	showMap := fs.Bool("map", false, "render the top-tier temperature field as an ASCII heatmap")
	workers := fs.Int("workers", 0, "solver worker goroutines (0 = one per CPU core, 1 = serial); grids under about 40 000 cells run on one goroutine at any count")
	precond := fs.String("precond", "zline", "PCG preconditioner: zline, multigrid or jacobi")
	precision := fs.String("precision", "f64", "preconditioner arithmetic tier: f64 or f32 (f32 halves preconditioner memory traffic; same solution to tolerance)")
	fidelity := fs.String("fidelity", specio.FidelityFull, "evaluation tier: full (exact FVM solve) or rc (certified reduced-order estimate)")
	dtm := fs.Bool("dtm", false, "run the closed-loop DTM burst experiment on the spec instead of a steady solve")
	dtmLimit := fs.Float64("dtm-limit", 125, "DTM thermal limit (°C)")
	reportPath := fs.String("report", "", "write a JSON run report (solve traces, counters, timings) to this path; \"-\" = stdout")
	debugAddr := fs.String("debug-addr", "", "serve pprof and expvar endpoints on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	pc, err := solver.ParsePreconditioner(*precond)
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		fs.Usage()
		return 2
	}
	prec, err := solver.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		fs.Usage()
		return 2
	}
	if *fidelity != specio.FidelityFull && *fidelity != specio.FidelityRC {
		fmt.Fprintf(stderr, "thermsim: unknown -fidelity %q (want %q or %q)\n",
			*fidelity, specio.FidelityFull, specio.FidelityRC)
		fs.Usage()
		return 2
	}

	if *example {
		raw, err := specio.Marshal(specio.Example())
		if err != nil {
			fmt.Fprintf(stderr, "thermsim: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	if *specPath == "" {
		fmt.Fprintln(stderr, "thermsim: -spec is required (see -example)")
		fs.Usage()
		return 2
	}

	if *debugAddr != "" {
		srv := debugServer(*debugAddr)
		defer srv.Close()
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "thermsim: debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "thermsim: pprof/expvar on http://%s/debug/pprof/\n", *debugAddr)
	}

	var tel *telemetry.Collector
	if *reportPath != "" {
		tel = telemetry.New()
	}

	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		return 1
	}
	sj, err := specio.Parse(raw)
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		return 1
	}
	spec, err := specio.Build(sj)
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		return 1
	}
	if *dtm {
		code := runDTM(ctx, spec, *dtmLimit, *workers, pc, prec, tel, stdout, stderr)
		if !writeReport(tel, *reportPath, args, stderr) {
			return 1
		}
		return code
	}
	if *fidelity == specio.FidelityRC {
		code := runRC(spec, tel, stdout, stderr)
		if !writeReport(tel, *reportPath, args, stderr) {
			return 1
		}
		return code
	}
	stopPhase := tel.Phase("solve")
	res, err := spec.Solve(solver.Options{
		Tol: 1e-7, MaxIter: 100000, Workers: *workers, Precond: pc,
		Precision: prec, Ctx: ctx, Telemetry: tel,
	})
	stopPhase()
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: solve: %v\n", err)
		writeReport(tel, *reportPath, args, stderr)
		return 1
	}
	fmt.Fprintf(stdout, "total flux: %.1f W/cm²  sink: %s\n",
		units.WPerM2ToWPerCm2(spec.TotalFlux()), spec.Sink)
	fmt.Fprintf(stdout, "T_max = %s (CG iterations: %d, residual %.1e)\n",
		units.FormatTemp(res.MaxT()), res.Field.Iterations, res.Field.Residual)
	for t := 0; t < spec.Tiers; t++ {
		fmt.Fprintf(stdout, "  tier %2d: %s\n", t, units.FormatTemp(res.TierMaxT(t)))
	}
	if *showMap {
		top := res.Layout.DeviceLayers[spec.Tiers-1][0]
		vals := make([]float64, spec.NX*spec.NY)
		for j := 0; j < spec.NY; j++ {
			for i := 0; i < spec.NX; i++ {
				vals[j*spec.NX+i] = units.KelvinToCelsius(res.Field.At(i, j, top))
			}
		}
		h, err := report.NewHeatmap(fmt.Sprintf("tier %d device layer", spec.Tiers-1), spec.NX, spec.NY, vals, "°C")
		if err != nil {
			fmt.Fprintf(stderr, "thermsim: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, h.String())
	}
	if !writeReport(tel, *reportPath, args, stderr) {
		return 1
	}
	return 0
}

// runDTM integrates a burst/idle demand trace through the spec twice
// — open loop and with the DTM controller — and prints the comparison.
// The demand trace is fixed (0.6× idle, 2× burst, repeated) with
// dt ≈ τ/6 so each phase spans a few thermal time constants.
func runDTM(ctx context.Context, spec *stack.Spec, limitC float64, workers int, pc solver.Preconditioner, prec solver.Precision, tel *telemetry.Collector, stdout, stderr io.Writer) int {
	demand := []sched.DemandPhase{
		{Name: "idle", Scale: 0.6, Steps: 25},
		{Name: "burst", Scale: 2.0, Steps: 40},
		{Name: "idle", Scale: 0.6, Steps: 25},
		{Name: "burst", Scale: 2.0, Steps: 40},
	}
	dt := sched.ThermalTimeConstant(spec) / 6
	opts := solver.Options{
		Tol: 1e-6, MaxIter: 80000, Workers: workers, Precond: pc,
		Precision: prec, Ctx: ctx, Telemetry: tel,
	}
	cfg := sched.DTMConfig{LimitC: limitC}
	stopPhase := tel.Phase("dtm")
	open, err := sched.SimulateDTM(spec, demand, dt, sched.DTMConfig{LimitC: limitC, Disabled: true}, opts)
	if err == nil {
		var closed *sched.DTMResult
		closed, err = sched.SimulateDTM(spec, demand, dt, cfg, opts)
		if err == nil {
			stopPhase()
			fmt.Fprintf(stdout, "closed-loop DTM, limit %.0f °C, dt %.2g s, %d steps\n",
				limitC, dt, len(open.Peaks))
			fmt.Fprintf(stdout, "  open loop: peak %s  violation %.1f µs (%d steps)\n",
				units.FormatTemp(open.PeakC+273.15), open.ViolationTimeS*1e6, open.ViolationSteps)
			fmt.Fprintf(stdout, "  DTM:       peak %s  violation %.1f µs (%d steps), %d throttle events, %d throttled steps\n",
				units.FormatTemp(closed.PeakC+273.15), closed.ViolationTimeS*1e6, closed.ViolationSteps,
				closed.ThrottleEvents, closed.ThrottledSteps)
			if closed.PeakC <= limitC {
				fmt.Fprintf(stdout, "  limit held: peak margin %.2f °C\n", limitC-closed.PeakC)
			} else {
				fmt.Fprintf(stdout, "  LIMIT EXCEEDED by %.2f °C — throttle depth insufficient for this stack\n", closed.PeakC-limitC)
			}
			return 0
		}
	}
	stopPhase()
	fmt.Fprintf(stderr, "thermsim: dtm: %v\n", err)
	return 1
}

// runRC answers from the certified reduced-order tier: reduce the
// spec's problem onto per-tier aggregation blocks, evaluate, and
// print the peak estimate with its certified error bound (a hard
// guarantee on the distance to the exact FVM answer, not a
// statistical one).
func runRC(spec *stack.Spec, tel *telemetry.Collector, stdout, stderr io.Writer) int {
	stopPhase := tel.Phase("rc-eval")
	scorer, err := rom.NewStackScorer(spec, rom.Options{})
	if err != nil {
		stopPhase()
		fmt.Fprintf(stderr, "thermsim: rc reduce: %v\n", err)
		return 1
	}
	res, err := scorer.Score(spec.PowerMaps)
	stopPhase()
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: rc eval: %v\n", err)
		return 1
	}
	tel.Add(telemetry.CounterRCEvals, 1)
	fmt.Fprintf(stdout, "total flux: %.1f W/cm²  sink: %s\n",
		units.WPerM2ToWPerCm2(spec.TotalFlux()), spec.Sink)
	fmt.Fprintf(stdout, "T_max ≈ %s ± %.2f K certified (rc fidelity, %d modes, defect %.1e)\n",
		units.FormatTemp(res.PeakT), res.Bound, scorer.Model().NumModes(), res.RelResidual)
	p, lay, err := spec.Build()
	if err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		return 1
	}
	g := p.Grid
	for t := 0; t < spec.Tiers; t++ {
		maxT := 0.0
		for _, k := range lay.DeviceLayers[t] {
			for j := 0; j < spec.NY; j++ {
				for i := 0; i < spec.NX; i++ {
					if v := res.T()[g.Index(i, j, k)]; v > maxT {
						maxT = v
					}
				}
			}
		}
		fmt.Fprintf(stdout, "  tier %2d: %s (estimate)\n", t, units.FormatTemp(maxT))
	}
	return 0
}

// writeReport emits the telemetry run report when one was requested;
// it returns false on write failure. A nil collector (no -report) is
// a no-op success.
func writeReport(tel *telemetry.Collector, path string, args []string, stderr io.Writer) bool {
	if tel == nil || path == "" {
		return true
	}
	if err := tel.WriteReportFile(path, "thermsim", args); err != nil {
		fmt.Fprintf(stderr, "thermsim: %v\n", err)
		return false
	}
	return true
}

// debugServer builds the opt-in diagnostics endpoint: pprof profiles
// and expvar counters on an explicit mux (the default mux is not used,
// so nothing is exposed unless -debug-addr is set).
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return &http.Server{Addr: addr, Handler: mux}
}
