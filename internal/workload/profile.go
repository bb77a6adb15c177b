// Package workload generates client traffic against the simulated store:
// open-loop Poisson arrivals whose rate follows a configurable load profile
// (constant, stepped, diurnal, spiky or composed), with YCSB-style operation
// mixes and key-popularity distributions.
//
// The paper's problem statement is that the inconsistency window drifts with
// load; these profiles provide the load shapes used to demonstrate and then
// control that drift.
package workload

import (
	"math"
	"time"
)

// LoadProfile yields the offered operation rate (operations per second) at a
// given virtual time.
type LoadProfile interface {
	Rate(at time.Duration) float64
}

// ConstantProfile offers a fixed rate.
type ConstantProfile struct {
	// OpsPerSec is the constant offered rate.
	OpsPerSec float64
}

// Rate implements LoadProfile.
func (p ConstantProfile) Rate(time.Duration) float64 { return nonNegative(p.OpsPerSec) }

// StepProfile offers Base ops/s, switching to Peak between From and To.
type StepProfile struct {
	Base float64
	Peak float64
	From time.Duration
	To   time.Duration
}

// Rate implements LoadProfile.
func (p StepProfile) Rate(at time.Duration) float64 {
	if at >= p.From && at < p.To {
		return nonNegative(p.Peak)
	}
	return nonNegative(p.Base)
}

// DiurnalProfile models a day/night cycle: the rate oscillates sinusoidally
// between Min and Max with the given period.
type DiurnalProfile struct {
	Min    float64
	Max    float64
	Period time.Duration
	// Phase shifts the peak; zero places the trough at t=0.
	Phase time.Duration
}

// Rate implements LoadProfile.
func (p DiurnalProfile) Rate(at time.Duration) float64 {
	if p.Period <= 0 {
		return nonNegative(p.Min)
	}
	frac := float64((at+p.Phase)%p.Period) / float64(p.Period)
	// Cosine shaped so that t=0 (no phase) is the trough.
	mid := float64((p.Min + p.Max) / 2)
	amp := (p.Max - p.Min) / 2
	return nonNegative(mid - float64(amp*math.Cos(2*math.Pi*frac)))
}

// SpikeProfile overlays a flash-crowd spike on a base rate.
type SpikeProfile struct {
	Base     float64
	SpikeTo  float64
	At       time.Duration
	Duration time.Duration
	// RampFraction is the fraction of Duration spent ramping up and down
	// (each); 0 means a square spike.
	RampFraction float64
}

// Rate implements LoadProfile.
func (p SpikeProfile) Rate(at time.Duration) float64 {
	if at < p.At || at >= p.At+p.Duration {
		return nonNegative(p.Base)
	}
	if p.RampFraction <= 0 {
		return nonNegative(p.SpikeTo)
	}
	ramp := time.Duration(float64(p.Duration) * p.RampFraction)
	into := at - p.At
	remaining := p.At + p.Duration - at
	scale := 1.0
	if into < ramp {
		scale = float64(into) / float64(ramp)
	} else if remaining < ramp {
		scale = float64(remaining) / float64(ramp)
	}
	return nonNegative(p.Base + float64((p.SpikeTo-p.Base)*scale))
}

// CompositeProfile sums the rates of its parts, allowing e.g. a diurnal
// baseline plus a flash crowd.
type CompositeProfile struct {
	Parts []LoadProfile
}

// Rate implements LoadProfile.
func (p CompositeProfile) Rate(at time.Duration) float64 {
	total := 0.0
	for _, part := range p.Parts {
		if part != nil {
			total += part.Rate(at)
		}
	}
	return total
}

// TracePoint is one sample of a recorded load trace.
type TracePoint struct {
	At   time.Duration
	Rate float64
}

// TraceProfile replays a piecewise-constant recorded trace. Points must be
// sorted by time; the rate before the first point is the first point's rate.
type TraceProfile struct {
	Points []TracePoint
}

// Rate implements LoadProfile.
func (p TraceProfile) Rate(at time.Duration) float64 {
	if len(p.Points) == 0 {
		return 0
	}
	rate := p.Points[0].Rate
	for _, pt := range p.Points {
		if pt.At > at {
			break
		}
		rate = pt.Rate
	}
	return nonNegative(rate)
}

func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
