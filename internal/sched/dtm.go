package sched

// Closed-loop dynamic thermal management (DTM): the runtime
// counterpart of the static assignment baseline. Where Schedule places
// known workloads spatially and SimulateRotation smooths them by
// swapping, the DTM controller reacts — it watches the integrated peak
// temperature, predicts one control step ahead, and throttles block
// power when the prediction crosses the thermal limit, recovering with
// hysteresis when headroom returns. This is the guardrail a real
// ultra-dense stack runs under: the paper's 125 °C constraint enforced
// in time rather than assumed at the steady state.

import (
	"errors"
	"fmt"
	"math"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/telemetry"
)

// DemandPhase is one piece of a workload demand trace: Steps
// integration steps at Scale× the spec's nominal power.
type DemandPhase struct {
	Name  string
	Scale float64
	Steps int
}

// DTMConfig tunes the controller. The zero value is the paper-shaped
// default: 125 °C limit, 5 °C recovery hysteresis, 0.5× throttle.
type DTMConfig struct {
	// LimitC is the thermal limit (°C); 0 → 125.
	LimitC float64
	// HysteresisC is the recovery band: a throttled controller
	// re-engages full power only once the predicted peak falls below
	// LimitC−HysteresisC, preventing limit-cycle chatter; 0 → 5.
	HysteresisC float64
	// ThrottleScale multiplies the demanded power while throttled;
	// 0 → 0.5. Must end up in (0, 1).
	ThrottleScale float64
	// Disabled runs the loop open — demand applied verbatim, no
	// throttling — as the violation baseline.
	Disabled bool
}

func (c DTMConfig) withDefaults() (DTMConfig, error) {
	if c.LimitC == 0 {
		c.LimitC = 125
	}
	if c.HysteresisC == 0 {
		c.HysteresisC = 5
	}
	if c.ThrottleScale == 0 {
		c.ThrottleScale = 0.5
	}
	if !(c.LimitC > 0) || math.IsInf(c.LimitC, 0) {
		return c, fmt.Errorf("sched: bad DTM limit %g", c.LimitC)
	}
	if !(c.HysteresisC >= 0) || math.IsInf(c.HysteresisC, 0) {
		return c, fmt.Errorf("sched: bad DTM hysteresis %g", c.HysteresisC)
	}
	if !(c.ThrottleScale > 0 && c.ThrottleScale < 1) {
		return c, fmt.Errorf("sched: bad DTM throttle scale %g (want 0<s<1)", c.ThrottleScale)
	}
	return c, nil
}

// DTMResult summarizes a closed-loop run.
type DTMResult struct {
	// PeakC is the highest temperature reached during the run (°C).
	PeakC float64
	// FinalC is the peak temperature at the end of the run.
	FinalC float64
	// Times, Peaks, and Throttled trace the run per step (s, °C,
	// controller state during the step).
	Times     []float64
	Peaks     []float64
	Throttled []bool
	// ThrottleEvents counts engagements (transitions into throttle).
	ThrottleEvents int
	// ThrottledSteps counts steps integrated at reduced power.
	ThrottledSteps int
	// ViolationSteps counts steps whose peak exceeded the limit;
	// ViolationTimeS is the same violation time in seconds.
	ViolationSteps int
	ViolationTimeS float64
}

// SimulateDTM integrates the demand trace through the spec's stack
// with the DTM controller in the loop. Before each step the controller
// extrapolates the peak one step ahead (linear, from the last two
// samples); a prediction at or above the limit engages the throttle
// (power × ThrottleScale), and a prediction below the hysteresis band
// releases it. Throttle engagements and limit-violation steps are
// counted on the result and mirrored to opts.Telemetry under
// CounterThrottleEvents / CounterViolationSteps.
//
// The loop is deterministic for a fixed Workers count: the controller
// reads only solver output, so a run is a pure function of
// (spec, demand, dt, cfg, opts).
func SimulateDTM(spec *stack.Spec, demand []DemandPhase, dt float64, cfg DTMConfig, opts solver.Options) (*DTMResult, error) {
	if spec == nil {
		return nil, errors.New("sched: nil spec")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !(dt > 0) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("sched: bad dt %g", dt)
	}
	if len(demand) == 0 {
		return nil, errors.New("sched: empty demand trace")
	}
	for i, ph := range demand {
		if !(ph.Scale >= 0) || math.IsInf(ph.Scale, 0) {
			return nil, fmt.Errorf("sched: demand phase %d has bad scale %g", i, ph.Scale)
		}
		if ph.Steps < 1 {
			return nil, fmt.Errorf("sched: demand phase %d has bad step count %d", i, ph.Steps)
		}
	}

	p, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	baseQ := p.Q
	amb := spec.Sink.Ambient()
	init := make([]float64, len(p.Q))
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

	scaled := make([]float64, len(baseQ))
	applied := math.NaN() // force the first SetSources
	apply := func(scale float64) error {
		if scale == applied {
			return nil
		}
		for c := range baseQ {
			scaled[c] = baseQ[c] * scale
		}
		if err := tr.SetSources(scaled); err != nil {
			return err
		}
		applied = scale
		return nil
	}

	out := &DTMResult{}
	ambC := amb - 273.15
	prevC, lastC := ambC, ambC
	throttled := false
	for _, ph := range demand {
		for s := 0; s < ph.Steps; s++ {
			// One-step-ahead linear extrapolation of the peak. At the
			// very first step both samples are ambient, so the
			// prediction is ambient — the controller engages only on
			// observed trajectory, never on priors.
			predictedC := lastC + (lastC - prevC)
			if !cfg.Disabled {
				switch {
				case !throttled && predictedC >= cfg.LimitC:
					throttled = true
					out.ThrottleEvents++
					opts.Telemetry.Add(telemetry.CounterThrottleEvents, 1)
				case throttled && predictedC < cfg.LimitC-cfg.HysteresisC:
					throttled = false
				}
			}
			scale := ph.Scale
			if throttled {
				scale *= cfg.ThrottleScale
				out.ThrottledSteps++
			}
			if err := apply(scale); err != nil {
				return nil, err
			}
			if err := tr.Step(dt); err != nil {
				return nil, err
			}
			peakC := tr.MaxField() - 273.15
			prevC, lastC = lastC, peakC
			out.Times = append(out.Times, tr.Time())
			out.Peaks = append(out.Peaks, peakC)
			out.Throttled = append(out.Throttled, throttled)
			if peakC > out.PeakC {
				out.PeakC = peakC
			}
			if peakC > cfg.LimitC {
				out.ViolationSteps++
				out.ViolationTimeS += dt
				opts.Telemetry.Add(telemetry.CounterViolationSteps, 1)
			}
		}
	}
	out.FinalC = out.Peaks[len(out.Peaks)-1]
	return out, nil
}
