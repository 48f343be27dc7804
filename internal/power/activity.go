package power

import (
	"errors"
	"fmt"
)

// Phase is one interval of an activity trace: a utilization level
// held for a duration — the abstraction PrimePower consumes from the
// VCS waveform in the paper's flow.
type Phase struct {
	Name     string
	Duration float64 // s
	// ArrayUtil and LogicActivity override the workload's levels
	// during this phase.
	ArrayUtil     float64
	LogicActivity float64
}

// Trace is a repeating sequence of phases.
type Trace struct {
	Name   string
	Phases []Phase
}

// MatmulTrace returns the canonical systolic-array execution shape:
// weight load (memory-bound, array mostly idle), steady compute at
// the workload's 72 % utilization, peak bursts at 100 %, and drain.
func MatmulTrace() Trace {
	return Trace{
		Name: "matmul",
		Phases: []Phase{
			{Name: "load", Duration: 8e-6, ArrayUtil: 0.10, LogicActivity: 0.30},
			{Name: "compute", Duration: 30e-6, ArrayUtil: 0.72, LogicActivity: 0.25},
			{Name: "burst", Duration: 6e-6, ArrayUtil: 1.00, LogicActivity: 0.30},
			{Name: "drain", Duration: 6e-6, ArrayUtil: 0.20, LogicActivity: 0.20},
		},
	}
}

// Validate checks the trace.
func (t Trace) Validate() error {
	if len(t.Phases) == 0 {
		return errors.New("power: empty trace")
	}
	for _, p := range t.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("power: phase %q has non-positive duration", p.Name)
		}
		if p.ArrayUtil < 0 || p.ArrayUtil > 1 || p.LogicActivity < 0 || p.LogicActivity > 1 {
			return fmt.Errorf("power: phase %q has out-of-range activity", p.Name)
		}
	}
	return nil
}

// Period returns one repetition's duration (s).
func (t Trace) Period() float64 {
	total := 0.0
	for _, p := range t.Phases {
		total += p.Duration
	}
	return total
}

// MeanUtil returns the duration-weighted mean array utilization.
func (t Trace) MeanUtil() float64 {
	var num, den float64
	for _, p := range t.Phases {
		num += p.ArrayUtil * p.Duration
		den += p.Duration
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PeakUtil returns the highest phase utilization.
func (t Trace) PeakUtil() float64 {
	peak := 0.0
	for _, p := range t.Phases {
		if p.ArrayUtil > peak {
			peak = p.ArrayUtil
		}
	}
	return peak
}

// MeanPower returns the trace-averaged power (W) of a systolic array
// executing the trace.
func (t Trace) MeanPower(a SystolicArray) float64 {
	var num, den float64
	for _, p := range t.Phases {
		num += a.Power(p.ArrayUtil) * p.Duration
		den += p.Duration
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// PeakPower returns the worst-phase power (W) — the thermal design
// point the paper evaluates ("systolic array power is scaled from
// 72 % to 100 % to estimate a worst-case").
func (t Trace) PeakPower(a SystolicArray) float64 {
	peak := 0.0
	for _, p := range t.Phases {
		if w := a.Power(p.ArrayUtil); w > peak {
			peak = w
		}
	}
	return peak
}
