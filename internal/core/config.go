package core

import (
	"errors"
	"time"

	"autonosql/internal/sla"
	"autonosql/internal/store"
)

// Config parameterises the autonomous controller. DefaultConfig provides the
// values used by the experiments; callers typically start from it and adjust
// the SLA and the enable flags.
type Config struct {
	// SLA is the agreement the controller must keep the system within.
	SLA sla.SLA

	// ControlInterval is the period of the MAPE loop.
	ControlInterval time.Duration

	// HighFraction is the fraction of an SLA limit above which the controller
	// considers the corresponding clause "at risk" and acts (hysteresis upper
	// band). Acting before the limit is reached absorbs monitoring noise and
	// actuation delay.
	HighFraction float64
	// LowFraction is the fraction of an SLA limit below which the controller
	// considers the clause comfortably met and may trade slack for cost
	// (hysteresis lower band).
	LowFraction float64

	// TargetUtilization is the CPU utilisation above which the cluster is
	// considered saturated.
	TargetUtilization float64
	// LowUtilization is the CPU utilisation below which the cluster is
	// considered over-provisioned.
	LowUtilization float64

	// ScaleOutCooldown is the minimum time between node additions.
	ScaleOutCooldown time.Duration
	// ScaleInCooldown is the minimum time between node removals.
	ScaleInCooldown time.Duration
	// ConsistencyCooldown is the minimum time between consistency-level
	// changes.
	ConsistencyCooldown time.Duration

	// MinNodes and MaxNodes bound the cluster sizes the controller will
	// request.
	MinNodes int
	MaxNodes int
	// MinWriteConsistency and MaxWriteConsistency bound the write consistency
	// levels the controller will request.
	MinWriteConsistency store.ConsistencyLevel
	MaxWriteConsistency store.ConsistencyLevel

	// EnableScaling allows add-node / remove-node actions.
	EnableScaling bool
	// EnableConsistencyActions allows consistency-level changes.
	EnableConsistencyActions bool
	// EnablePrediction turns on proactive scaling from the load forecast.
	EnablePrediction bool
	// EnableAdmissionControl allows tenant-scoped throttle / unthrottle
	// actions: while a gold tenant is in violation the planner sheds a noisy
	// non-gold tenant's load before it reaches for more capacity.
	EnableAdmissionControl bool
	// EnablePlacementActions allows class-scoped pin / unpin actions that
	// dedicate nodes to one SLA class.
	EnablePlacementActions bool

	// PredictionHorizon is how far ahead the load predictor looks. It should
	// be at least the node bootstrap time, so capacity arrives before it is
	// needed.
	PredictionHorizon time.Duration
	// PredictorWindow is the number of recent control intervals the predictor
	// fits its trend over.
	PredictorWindow int
	// NodeCapacityOpsPerSec is the controller's belief about how many
	// operations per second one node sustains; the predictor sizes the
	// cluster with it.
	NodeCapacityOpsPerSec float64

	// MinWindowSamples is the minimum number of window estimates a snapshot
	// must carry before the controller trusts it enough to act on the window
	// clause.
	MinWindowSamples int

	// ThrottleFraction is the share of a tenant's observed offered rate a
	// throttle action admits (each further throttle of an already throttled
	// tenant multiplies again).
	ThrottleFraction float64
	// MinThrottleRate is the floor (ops/s) below which the planner never
	// throttles a tenant: admission control sheds bursts, it does not starve
	// a tenant outright.
	MinThrottleRate float64
	// ThrottleCooldown is the minimum time between admission actions on the
	// same tenant. Cooldowns are keyed per (action, tenant), so throttling
	// one tenant never delays protecting the cluster from another.
	ThrottleCooldown time.Duration
	// UnthrottleHoldoff is how long the driving pressure must have been gone
	// before a throttled tenant is released, preventing a throttle/unthrottle
	// oscillation at the violation boundary.
	UnthrottleHoldoff time.Duration
	// PlacementCooldown is the minimum time between class pin / unpin
	// actions.
	PlacementCooldown time.Duration
}

// DefaultConfig returns the controller profile used by the experiments.
func DefaultConfig(agreement sla.SLA) Config {
	return Config{
		SLA:                      agreement,
		ControlInterval:          10 * time.Second,
		HighFraction:             0.85,
		LowFraction:              0.35,
		TargetUtilization:        0.75,
		LowUtilization:           0.35,
		ScaleOutCooldown:         90 * time.Second,
		ScaleInCooldown:          5 * time.Minute,
		ConsistencyCooldown:      60 * time.Second,
		MinNodes:                 2,
		MaxNodes:                 32,
		MinWriteConsistency:      store.One,
		MaxWriteConsistency:      store.All,
		EnableScaling:            true,
		EnableConsistencyActions: true,
		EnablePrediction:         true,
		PredictionHorizon:        2 * time.Minute,
		PredictorWindow:          12,
		NodeCapacityOpsPerSec:    5000,
		MinWindowSamples:         8,
		ThrottleFraction:         0.5,
		MinThrottleRate:          50,
		ThrottleCooldown:         60 * time.Second,
		UnthrottleHoldoff:        90 * time.Second,
		PlacementCooldown:        3 * time.Minute,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig(c.SLA)
	if c.ControlInterval <= 0 {
		c.ControlInterval = d.ControlInterval
	}
	if c.HighFraction <= 0 || c.HighFraction > 1 {
		c.HighFraction = d.HighFraction
	}
	if c.LowFraction <= 0 || c.LowFraction >= c.HighFraction {
		c.LowFraction = d.LowFraction
	}
	if c.TargetUtilization <= 0 || c.TargetUtilization > 1 {
		c.TargetUtilization = d.TargetUtilization
	}
	if c.LowUtilization <= 0 || c.LowUtilization >= c.TargetUtilization {
		c.LowUtilization = d.LowUtilization
	}
	if c.ScaleOutCooldown <= 0 {
		c.ScaleOutCooldown = d.ScaleOutCooldown
	}
	if c.ScaleInCooldown <= 0 {
		c.ScaleInCooldown = d.ScaleInCooldown
	}
	if c.ConsistencyCooldown <= 0 {
		c.ConsistencyCooldown = d.ConsistencyCooldown
	}
	if c.MinNodes <= 0 {
		c.MinNodes = d.MinNodes
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = d.MaxNodes
	}
	if c.MinWriteConsistency == 0 {
		c.MinWriteConsistency = d.MinWriteConsistency
	}
	if c.MaxWriteConsistency == 0 {
		c.MaxWriteConsistency = d.MaxWriteConsistency
	}
	if c.PredictionHorizon <= 0 {
		c.PredictionHorizon = d.PredictionHorizon
	}
	if c.PredictorWindow <= 0 {
		c.PredictorWindow = d.PredictorWindow
	}
	if c.NodeCapacityOpsPerSec <= 0 {
		c.NodeCapacityOpsPerSec = d.NodeCapacityOpsPerSec
	}
	if c.MinWindowSamples <= 0 {
		c.MinWindowSamples = d.MinWindowSamples
	}
	if c.ThrottleFraction <= 0 || c.ThrottleFraction >= 1 {
		c.ThrottleFraction = d.ThrottleFraction
	}
	if c.MinThrottleRate <= 0 {
		c.MinThrottleRate = d.MinThrottleRate
	}
	if c.ThrottleCooldown <= 0 {
		c.ThrottleCooldown = d.ThrottleCooldown
	}
	if c.UnthrottleHoldoff <= 0 {
		c.UnthrottleHoldoff = d.UnthrottleHoldoff
	}
	if c.PlacementCooldown <= 0 {
		c.PlacementCooldown = d.PlacementCooldown
	}
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if err := c.SLA.Validate(); err != nil {
		return err
	}
	if c.MinNodes > c.MaxNodes {
		return errors.New("core: MinNodes exceeds MaxNodes")
	}
	if c.MinWriteConsistency > c.MaxWriteConsistency {
		return errors.New("core: MinWriteConsistency stricter than MaxWriteConsistency")
	}
	if c.LowFraction >= c.HighFraction {
		return errors.New("core: LowFraction must be below HighFraction")
	}
	if c.LowUtilization >= c.TargetUtilization {
		return errors.New("core: LowUtilization must be below TargetUtilization")
	}
	return nil
}
