package sched

import (
	"errors"
	"fmt"
	"math"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
)

// DynamicResult summarizes a transient task-rotation simulation.
type DynamicResult struct {
	// PeakC is the highest temperature reached during the run (°C).
	PeakC float64
	// FinalC is the peak temperature at the end of the run.
	FinalC float64
	// Times and Peaks trace the run (s, °C).
	Times []float64
	Peaks []float64
	// Rotations counts completed assignment swaps.
	Rotations int
}

// SimulateRotation runs a transient simulation of dynamic task
// swapping ([4], the paper's Sec. III-B alternative to static
// assignment): every period seconds the task→tier assignment rotates
// by one position, so no tier holds the hottest task for long. The
// stack starts at the sink ambient. dt is the integration step;
// cycles is the number of rotation periods simulated.
//
// The paper notes static thermal-aware assignment and dynamic
// swapping achieve similar results: with rotation periods well below
// the stack's thermal time constant, the time-averaged power per
// tier approaches uniform, which is what the static scheduler
// engineers spatially.
func SimulateRotation(spec *stack.Spec, tasks []Task, period, dt float64, cycles int, opts solver.Options) (*DynamicResult, error) {
	if spec == nil {
		return nil, errors.New("sched: nil spec")
	}
	if len(spec.PowerMaps) != 1 {
		return nil, errors.New("sched: rotation expects a single replicated power map")
	}
	if len(tasks) != spec.Tiers {
		return nil, fmt.Errorf("sched: %d tasks for %d tiers", len(tasks), spec.Tiers)
	}
	if period <= 0 || dt <= 0 || dt > period {
		return nil, fmt.Errorf("sched: bad timing period=%g dt=%g", period, dt)
	}
	if cycles < 1 {
		return nil, fmt.Errorf("sched: bad cycle count %d", cycles)
	}
	base := spec.PowerMaps[0]

	assignAt := func(rot int) [][]float64 {
		maps := make([][]float64, spec.Tiers)
		for t := 0; t < spec.Tiers; t++ {
			task := tasks[(t+rot)%len(tasks)]
			m := make([]float64, len(base))
			for c := range base {
				m[c] = base[c] * task.Scale
			}
			maps[t] = m
		}
		return maps
	}

	// Build the problem once with the initial assignment.
	work := *spec
	work.PowerMaps = assignAt(0)
	p, _, err := work.Build()
	if err != nil {
		return nil, err
	}
	init := make([]float64, len(p.Q))
	amb := spec.Sink.Ambient()
	for i := range init {
		init[i] = amb
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	tr, err := solver.NewTransient(p, init, opts)
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	out := &DynamicResult{}
	stepsPerPeriod := int(math.Round(period / dt))
	if stepsPerPeriod < 1 {
		stepsPerPeriod = 1
	}
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle > 0 {
			rot := *spec
			rot.PowerMaps = assignAt(cycle)
			pr, _, err := rot.Build()
			if err != nil {
				return nil, err
			}
			if err := tr.SetSources(pr.Q); err != nil {
				return nil, err
			}
			out.Rotations++
		}
		for s := 0; s < stepsPerPeriod; s++ {
			if err := tr.Step(dt); err != nil {
				return nil, err
			}
			peakC := tr.MaxField() - 273.15
			out.Times = append(out.Times, tr.Time())
			out.Peaks = append(out.Peaks, peakC)
			if peakC > out.PeakC {
				out.PeakC = peakC
			}
		}
	}
	out.FinalC = out.Peaks[len(out.Peaks)-1]
	return out, nil
}

// ThermalTimeConstant estimates the stack's lumped thermal time
// constant (s): total heat capacitance per area over the heatsink
// conductance per area. Rotation periods well below this smooth the
// temperature field; periods well above behave like a sequence of
// static assignments.
func ThermalTimeConstant(spec *stack.Spec) float64 {
	// Per-area capacitance: handle plus per-tier layers (doubled for
	// the memory sub-layer), using silicon/oxide volumetrics.
	const (
		cvSi    = 1.66e6
		cvOxide = 1.60e6
		tSi     = 100e-9
		tBEOL   = 940e-9
		tHandle = 10e-6
	)
	perTier := tSi*cvSi + tBEOL*cvOxide
	if spec.MemoryPerTier {
		perTier *= 2
	}
	capacitance := tHandle*cvSi + float64(spec.Tiers)*perTier
	return capacitance / spec.Sink.H
}
