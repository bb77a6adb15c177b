package autonosql

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// AdmissionMode selects what happens to a throttled tenant's excess arrivals.
type AdmissionMode string

const (
	// AdmissionShed rejects excess arrivals immediately: the client sees an
	// ErrAdmissionShed failure and the tenant's availability clause prices
	// the rejection. This is the default (and the zero value "" means shed).
	AdmissionShed AdmissionMode = "shed"
	// AdmissionDelay queues excess arrivals in a bounded per-tenant queue
	// and forwards them as the token bucket refills: clients see added
	// latency instead of failures, the SLA pressure moves from the
	// availability clause to the latency clauses. Queue overflow still
	// sheds.
	AdmissionDelay AdmissionMode = "delay"
)

// AdmissionSpec configures tenant-scoped admission control for the smart
// controller. When enabled, the planner may throttle a noisy non-gold tenant
// — shedding its excess arrivals through a deterministic token bucket before
// they reach the store — instead of scaling the whole cluster for it. The
// zero value disables admission control and reproduces pre-admission
// behaviour exactly.
type AdmissionSpec struct {
	// Enabled allows throttle / unthrottle actions.
	Enabled bool
	// Mode selects shed (reject excess, the default) or delay (queue
	// excess) behaviour for throttled tenants.
	Mode AdmissionMode
	// ThrottleFraction is the share of a tenant's observed offered rate a
	// throttle action admits; each further throttle multiplies again.
	// Zero selects the default (0.5).
	ThrottleFraction float64
	// MinRate is the admission floor in ops/s below which the controller
	// never throttles a tenant. Zero selects the default (50).
	MinRate float64
	// Cooldown is the minimum time between admission actions on the same
	// tenant. Cooldowns are keyed per (action, tenant), so throttling one
	// tenant never delays throttling another. Zero selects the default (60s).
	Cooldown time.Duration
	// Holdoff is how long the driving pressure must have been gone before a
	// throttled tenant is released. Zero selects the default (90s).
	Holdoff time.Duration
}

// validate reports whether the admission spec is well formed.
func (a AdmissionSpec) validate() error {
	switch a.Mode {
	case "", AdmissionShed, AdmissionDelay:
	default:
		return fmt.Errorf("unknown mode %q (want %q or %q)", a.Mode, AdmissionShed, AdmissionDelay)
	}
	if math.IsNaN(a.ThrottleFraction) || a.ThrottleFraction < 0 || a.ThrottleFraction >= 1 {
		return fmt.Errorf("ThrottleFraction %v must be within [0, 1)", a.ThrottleFraction)
	}
	if !finiteNonNegative(a.MinRate) {
		return fmt.Errorf("MinRate must be finite and non-negative")
	}
	if a.Cooldown < 0 || a.Holdoff < 0 {
		return fmt.Errorf("cooldowns must be non-negative")
	}
	return nil
}

// ParseAdmissionSpec parses the -admission DSL:
//
//	off | on[:mode=shed|delay][:frac=F][:floor=R][:cooldown=D][:hold=D]
//
// where mode selects what happens to excess arrivals (shed rejects them, the
// default; delay queues them and charges the wait as latency), frac is the
// admitted share of the target tenant's offered rate in (0, 1), floor the
// minimum admission rate in ops/s, and cooldown / hold the per-tenant action
// cooldown and the release holdoff as Go durations. Examples:
//
//	on
//	on:frac=0.4:floor=100
//	on:mode=delay:cooldown=2m:hold=90s
//
// An empty string parses to "off". An option set to zero, which would select
// its default, is rejected; every other range is AdmissionSpec's to check, so
// every accepted spec passes ScenarioSpec validation.
func ParseAdmissionSpec(s string) (AdmissionSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AdmissionSpec{}, nil
	}
	var spec AdmissionSpec
	fields, err := parseDSLElement(s, "on|off", dslOptions{
		"mode":     func(v string) error { spec.Mode = AdmissionMode(strings.ToLower(v)); return nil },
		"frac":     nonZeroOption(&spec.ThrottleFraction, parseFloat),
		"floor":    nonZeroOption(&spec.MinRate, parseFloat),
		"cooldown": nonZeroOption(&spec.Cooldown, time.ParseDuration),
		"hold":     nonZeroOption(&spec.Holdoff, time.ParseDuration),
	})
	if err == nil {
		switch strings.ToLower(fields[0]) {
		case "on":
			spec.Enabled = true
			err = spec.validate()
		case "off":
			// Every option sets a non-zero value.
			if spec != (AdmissionSpec{}) {
				err = errors.New(`"off" takes no options`)
			}
		default:
			err = errors.New(`want "on" or "off"`)
		}
	}
	if err != nil {
		return AdmissionSpec{}, fmt.Errorf("autonosql: admission %q: %w", s, err)
	}
	return spec, nil
}
