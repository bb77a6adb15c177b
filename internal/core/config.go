package core

import (
	"errors"
	"time"

	"autonosql/internal/sla"
)

// Config parameterises the autonomous controller. DefaultConfig provides the
// values used by the experiments; callers start from it and adjust the enable
// flags and the bounds the scenario sets. The hysteresis bands, utilisation
// thresholds, cooldowns and predictor window are the package's constants.
type Config struct {
	// SLA is the agreement the controller must keep the system within.
	SLA sla.SLA

	// ControlInterval is the period of the MAPE loop.
	ControlInterval time.Duration

	// MinNodes and MaxNodes bound the cluster sizes the controller will
	// request.
	MinNodes int
	MaxNodes int

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
	// NodeCapacityOpsPerSec is the controller's belief about how many
	// operations per second one node sustains; the predictor sizes the
	// cluster with it.
	NodeCapacityOpsPerSec float64

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
}

// The controller's fixed policy parameters.
const (
	// highFraction is the fraction of an SLA limit above which the controller
	// considers the corresponding clause "at risk" and acts (hysteresis upper
	// band). Acting before the limit is reached absorbs monitoring noise and
	// actuation delay.
	highFraction = 0.85
	// lowFraction is the fraction of an SLA limit below which the controller
	// considers the clause comfortably met and may trade slack for cost
	// (hysteresis lower band).
	lowFraction = 0.35

	// targetUtilization is the CPU utilisation above which the cluster is
	// considered saturated.
	targetUtilization = 0.75
	// lowUtilization is the CPU utilisation below which the cluster is
	// considered over-provisioned.
	lowUtilization = 0.35
	// quietUtilization is the CPU utilisation below which the cluster has
	// plenty of headroom, so a wide window is blamed on the network or on
	// loose consistency. It is targetUtilization*0.7 as float64 arithmetic
	// rounds it; the exact constant product, 0.525, is one ulp higher.
	quietUtilization = 0.5249999999999999

	// scaleOutCooldown is the minimum time between node additions.
	scaleOutCooldown = 90 * time.Second
	// scaleInCooldown is the minimum time between node removals.
	scaleInCooldown = 5 * time.Minute
	// consistencyCooldown is the minimum time between consistency-level
	// changes.
	consistencyCooldown = 60 * time.Second
	// placementCooldown is the minimum time between class pin / unpin
	// actions.
	placementCooldown = 3 * time.Minute

	// predictorWindow is the number of recent control intervals the predictor
	// fits its trend over.
	predictorWindow = 12
	// minWindowSamples is the minimum number of window estimates a snapshot
	// must carry before the controller trusts it enough to act on the window
	// clause.
	minWindowSamples = 8
)

// DefaultConfig returns the controller profile used by the experiments.
func DefaultConfig(agreement sla.SLA) Config {
	return Config{
		SLA:                      agreement,
		ControlInterval:          10 * time.Second,
		MinNodes:                 2,
		MaxNodes:                 32,
		EnableScaling:            true,
		EnableConsistencyActions: true,
		EnablePrediction:         true,
		PredictionHorizon:        2 * time.Minute,
		NodeCapacityOpsPerSec:    5000,
		ThrottleFraction:         0.5,
		MinThrottleRate:          50,
		ThrottleCooldown:         60 * time.Second,
		UnthrottleHoldoff:        90 * time.Second,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if err := c.SLA.Validate(); err != nil {
		return err
	}
	if c.MinNodes > c.MaxNodes {
		return errors.New("core: MinNodes exceeds MaxNodes")
	}
	return nil
}
