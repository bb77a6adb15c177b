// Package baseline implements the reactive alternative the paper's
// autonomous system is motivated against: the classic cloud autoscaler that
// watches CPU utilisation only. It is completely blind to the inconsistency
// window, so it neither reacts to consistency drift under moderate CPU load
// nor anticipates load it has not seen yet.
//
// Static provisioning, the other alternative, needs no code: a scenario with
// no controller keeps the configuration it was deployed with.
package baseline

import (
	"errors"
	"time"

	"autonosql/internal/core"
	"autonosql/internal/monitor"
)

// ReactiveConfig configures the CPU-threshold autoscaler.
type ReactiveConfig struct {
	// MinNodes and MaxNodes bound the cluster size.
	MinNodes int
	MaxNodes int
}

// The autoscaling policy mirrors a typical cloud provider's: scale out above
// 75% CPU, scale in below 30%, with conservative cooldowns.
const (
	// scaleOutUtilization is the mean utilisation above which a node is
	// added.
	scaleOutUtilization = 0.75
	// scaleInUtilization is the mean utilisation below which a node is
	// removed.
	scaleInUtilization = 0.30
	// scaleOutCooldown is the minimum time between node additions.
	scaleOutCooldown = 90 * time.Second
	// scaleInCooldown is the minimum time between node removals, and the
	// time a scale-out holds off the next removal.
	scaleInCooldown = 5 * time.Minute
)

// DefaultReactiveConfig returns the cluster-size bounds of the default
// policy.
func DefaultReactiveConfig() ReactiveConfig {
	return ReactiveConfig{MinNodes: 2, MaxNodes: 32}
}

// ReactiveAutoscaler is the classic utilisation-threshold autoscaler. It only
// ever adds or removes nodes and only looks at CPU utilisation.
type ReactiveAutoscaler struct {
	cfg      ReactiveConfig
	actuator core.Actuator

	lastScaleOut time.Duration
	lastScaleIn  time.Duration
	scaledOut    bool
	scaledIn     bool

	applied   int
	failed    int
	decisions []core.Decision
}

// NewReactiveAutoscaler creates an autoscaler driving the given actuator. The
// owner calls Step once per control interval with the latest snapshot. It
// takes a complete config; start from DefaultReactiveConfig.
func NewReactiveAutoscaler(cfg ReactiveConfig, actuator core.Actuator) (*ReactiveAutoscaler, error) {
	if actuator == nil {
		return nil, errors.New("baseline: actuator is required")
	}
	return &ReactiveAutoscaler{cfg: cfg, actuator: actuator}, nil
}

// Step runs one control step: a pure CPU-threshold policy.
func (r *ReactiveAutoscaler) Step(snap monitor.Snapshot) core.Decision {
	d := core.Decision{At: snap.At}
	size := r.actuator.ClusterSize()

	switch {
	case snap.MeanUtilization > scaleOutUtilization && size < r.cfg.MaxNodes &&
		(!r.scaledOut || snap.At-r.lastScaleOut >= scaleOutCooldown):
		d.Action = core.Action{Kind: core.ActionAddNode, Reason: "mean utilisation above scale-out threshold"}
		if err := r.actuator.AddNode(); err != nil {
			d.Err = err
			r.failed++
		} else {
			d.Applied = true
			r.applied++
			r.lastScaleOut = snap.At
			r.scaledOut = true
		}

	case snap.MeanUtilization < scaleInUtilization && size > r.cfg.MinNodes &&
		(!r.scaledIn || snap.At-r.lastScaleIn >= scaleInCooldown) &&
		(!r.scaledOut || snap.At-r.lastScaleOut >= scaleInCooldown):
		d.Action = core.Action{Kind: core.ActionRemoveNode, Reason: "mean utilisation below scale-in threshold"}
		if err := r.actuator.RemoveNode(); err != nil {
			d.Err = err
			r.failed++
		} else {
			d.Applied = true
			r.applied++
			r.lastScaleIn = snap.At
			r.scaledIn = true
		}

	default:
		d.Action = core.Action{Kind: core.ActionNone, Reason: "utilisation within thresholds"}
	}

	d.ClusterSize = r.actuator.ClusterSize()
	d.ReplicationFactor = r.actuator.ReplicationFactor()
	d.ReadConsistency = r.actuator.ReadConsistency()
	d.WriteConsistency = r.actuator.WriteConsistency()
	r.decisions = append(r.decisions, d)
	return d
}

// Reconfigurations returns how many scale actions were applied.
func (r *ReactiveAutoscaler) Reconfigurations() int { return r.applied }

// FailedActions returns how many scale actions failed to apply.
func (r *ReactiveAutoscaler) FailedActions() int { return r.failed }

// Decisions returns a copy of every decision taken so far.
func (r *ReactiveAutoscaler) Decisions() []core.Decision {
	out := make([]core.Decision, len(r.decisions))
	copy(out, r.decisions)
	return out
}
