package core

import (
	"fmt"
	"time"

	"autonosql/internal/metrics"
	"autonosql/internal/monitor"
	"autonosql/internal/sla"
	"autonosql/internal/tenant"
)

// Condition is the analyzer's classification of the system state relative to
// the SLA and the resource bands.
type Condition int

// Conditions, in decreasing order of urgency.
const (
	// ConditionAvailabilityLow means operations are failing beyond the SLA's
	// error-rate clause.
	ConditionAvailabilityLow Condition = iota + 1
	// ConditionWindowHigh means the inconsistency window estimate is at or
	// beyond the SLA band.
	ConditionWindowHigh
	// ConditionLatencyHigh means read or write latency is at or beyond the
	// SLA band.
	ConditionLatencyHigh
	// ConditionOverProvisioned means every clause is comfortably met and the
	// cluster is mostly idle, so cost can be recovered.
	ConditionOverProvisioned
	// ConditionNominal means no action is warranted.
	ConditionNominal
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case ConditionAvailabilityLow:
		return "availability-low"
	case ConditionWindowHigh:
		return "window-high"
	case ConditionLatencyHigh:
		return "latency-high"
	case ConditionOverProvisioned:
		return "over-provisioned"
	case ConditionNominal:
		return "nominal"
	default:
		return fmt.Sprintf("condition(%d)", int(c))
	}
}

// Cause is the analyzer's attribution of why the primary condition holds.
// Choosing the right reconfiguration action depends on the cause: the paper's
// example is that adding a replica under network congestion only makes the
// congestion worse.
type Cause int

// Causes.
const (
	// CauseUnknown means the analyzer could not attribute the condition.
	CauseUnknown Cause = iota + 1
	// CauseCPUSaturation means the nodes are the bottleneck.
	CauseCPUSaturation
	// CauseNetworkCongestion means replica propagation is delayed by the
	// network rather than by node queues.
	CauseNetworkCongestion
	// CauseLooseConsistency means the configured consistency level leaves the
	// window unbounded even though resources are fine.
	CauseLooseConsistency
	// CauseExcessCapacity means the cluster is larger or stricter than the
	// workload needs.
	CauseExcessCapacity
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseUnknown:
		return "unknown"
	case CauseCPUSaturation:
		return "cpu-saturation"
	case CauseNetworkCongestion:
		return "network-congestion"
	case CauseLooseConsistency:
		return "loose-consistency"
	case CauseExcessCapacity:
		return "excess-capacity"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Analysis is the analyzer's verdict for one control interval.
type Analysis struct {
	// At is the virtual time of the snapshot.
	At time.Duration
	// Snapshot is the monitoring snapshot the analysis is based on.
	Snapshot monitor.Snapshot
	// Headroom is the observed/limit ratio for each SLA clause. In a
	// multi-tenant snapshot it is the driving tenant's headroom against that
	// tenant's own SLA class.
	Headroom sla.Headroom
	// Primary is the most urgent condition detected.
	Primary Condition
	// Cause attributes the primary condition.
	Cause Cause
	// LoadTrend is the estimated change in offered load, in ops/s per second.
	LoadTrend float64
	// ForecastOpsPerSec is the predicted offered load at the prediction
	// horizon.
	ForecastOpsPerSec float64
	// WindowTrusted reports whether the snapshot carried enough window
	// samples for window-driven decisions.
	WindowTrusted bool

	// Tenant names the tenant whose penalty-weighted signal drove this
	// analysis; it is empty for single-tenant snapshots, where the analyzer
	// works from the aggregate estimate.
	Tenant string
	// TenantClass is the driving tenant's SLA class (empty when Tenant is).
	TenantClass string
	// GoldViolation reports whether any gold-class tenant is currently in
	// violation of its own SLA; while it holds, the planner vetoes scale-in
	// and prefers tenant-scoped protection over cluster-wide growth.
	GoldViolation bool

	// ThrottleCandidate names the best admission-control target: the
	// unthrottled non-gold tenant shedding whose load buys the most relief
	// per dollar of contractual penalty. Empty when no such tenant exists.
	ThrottleCandidate string
	// ThrottleCandidateRate is the candidate's observed offered rate in
	// ops/s, the base the planner derives the admission rate from.
	ThrottleCandidateRate float64
	// Throttled lists the currently throttled tenants in declaration order,
	// with each tenant's admission state, for the planner's escalation and
	// recovery paths.
	Throttled []ThrottledTenant
}

// ThrottledTenant is one currently throttled tenant's admission state as
// seen by the analyzer.
type ThrottledTenant struct {
	// Name identifies the tenant.
	Name string
	// Rate is the admitted rate in ops/s.
	Rate float64
	// Offered is the tenant's observed offered rate (including shed
	// arrivals) over the interval.
	Offered float64
}

// Binding reports whether the throttle is actively shedding: the tenant
// offers more than the bucket admits. Releasing a binding throttle would
// only re-create the pressure it sheds.
func (t ThrottledTenant) Binding() bool { return t.Offered > t.Rate }

// Analyzer turns monitoring snapshots into Analyses. It keeps a short history
// of load and utilisation so it can estimate trends.
type Analyzer struct {
	cfg       Config
	predictor *LoadPredictor
	util      *metrics.EWMA
}

// NewAnalyzer creates an analyzer for the given controller configuration. It
// takes a complete config; start from DefaultConfig.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{
		cfg:       cfg,
		predictor: NewLoadPredictor(predictorWindow),
		util:      metrics.NewEWMA(0.4),
	}
}

// Analyze classifies one snapshot. For a multi-tenant snapshot the analysis
// is driven by the worst penalty-weighted tenant signal — each tenant's
// observations are ranked against its own SLA class, scaled by its violation
// price — instead of the aggregate estimate, so a gold tenant pushed towards
// its bound by a bronze tenant's burst wins the controller's attention even
// while the aggregate still looks healthy.
func (a *Analyzer) Analyze(snap monitor.Snapshot) Analysis {
	obs := sla.Observation{
		At:              snap.At,
		Interval:        snap.Interval,
		WindowP95:       snap.WindowP95,
		ReadLatencyP99:  snap.ReadLatencyP99,
		WriteLatencyP99: snap.WriteLatencyP99,
		ErrorRate:       snap.ErrorRate,
	}
	agreement := a.cfg.SLA

	an := Analysis{
		At:       snap.At,
		Snapshot: snap,
	}

	// Multi-tenant snapshot: substitute the driving tenant's observations and
	// agreement for the aggregate ones before classification. Throttled
	// tenants never drive the loop — their distress is the shed the
	// controller itself imposed, already priced into their own SLA — unless
	// every tenant is throttled, in which case the worst overall still wins
	// so the analysis reflects reality.
	if len(snap.Tenants) > 0 {
		worst, found := tenant.Signal{}, false
		for _, sig := range snap.Tenants {
			if sig.Throttled {
				continue
			}
			if !found || sig.Urgency() > worst.Urgency() {
				worst, found = sig, true
			}
		}
		if !found {
			worst = snap.Tenants[0]
			for _, sig := range snap.Tenants[1:] {
				if sig.Urgency() > worst.Urgency() {
					worst = sig
				}
			}
		}
		obs.WindowP95 = worst.WindowP95
		obs.ReadLatencyP99 = worst.ReadLatencyP99
		obs.WriteLatencyP99 = worst.WriteLatencyP99
		obs.ErrorRate = worst.ErrorRate
		agreement = worst.SLA
		an.Tenant = worst.Name
		an.TenantClass = string(worst.Class)
		for _, sig := range snap.Tenants {
			if sig.Class == tenant.Gold && sig.InViolation() {
				an.GoldViolation = true
				break
			}
		}
		an.annotateAdmission(snap.Tenants)
	}

	head := agreement.Headroom(obs)

	a.predictor.Observe(snap.At, snap.ObservedOpsPerSec)
	smoothedUtil := a.util.Update(snap.MeanUtilization)

	an.Headroom = head
	an.LoadTrend = a.predictor.TrendPerSecond()
	an.ForecastOpsPerSec = a.predictor.Forecast(snap.At + a.cfg.PredictionHorizon)
	an.WindowTrusted = snap.WindowSamples >= minWindowSamples

	an.Primary, an.Cause = a.classify(snap, obs, agreement, head, smoothedUtil, an.WindowTrusted)
	return an
}

// annotateAdmission derives the admission-control view of the tenant
// signals: who is already throttled, and which unthrottled non-gold tenant
// is the best next throttle target. The target maximises offered load per
// dollar of penalty — shedding the tenant that contributes the most pressure
// at the least contractual cost — with ties broken by declaration order so
// the choice is deterministic.
func (an *Analysis) annotateAdmission(sigs []tenant.Signal) {
	best := 0.0
	for _, sig := range sigs {
		if sig.Throttled {
			an.Throttled = append(an.Throttled, ThrottledTenant{
				Name:    sig.Name,
				Rate:    sig.ThrottleRate,
				Offered: sig.OfferedOpsPerSec,
			})
			continue
		}
		if sig.Class == tenant.Gold || sig.OfferedOpsPerSec <= 0 {
			continue
		}
		weight := sig.PenaltyPerMinute
		if weight < 0.01 {
			weight = 0.01
		}
		// Every score is positive, so the first maximum in declaration
		// order wins a tie.
		if score := sig.OfferedOpsPerSec / weight; score > best {
			best = score
			an.ThrottleCandidate = sig.Name
			an.ThrottleCandidateRate = sig.OfferedOpsPerSec
		}
	}
}

// classify applies the condition hierarchy: availability first, then the
// window, then latency, then cost recovery. obs and agreement are the
// effective observation and SLA — the aggregate pair for single-tenant
// snapshots, the driving tenant's pair otherwise.
func (a *Analyzer) classify(snap monitor.Snapshot, obs sla.Observation, agreement sla.SLA, head sla.Headroom, smoothedUtil float64, windowTrusted bool) (Condition, Cause) {
	switch {
	case head.Availability > highFraction:
		// Failing operations are almost always a capacity or membership
		// problem; saturation is the default attribution.
		if snap.MaxUtilization >= targetUtilization {
			return ConditionAvailabilityLow, CauseCPUSaturation
		}
		return ConditionAvailabilityLow, CauseUnknown

	case windowTrusted && head.Window > highFraction:
		return ConditionWindowHigh, a.windowCause(snap, obs, agreement, smoothedUtil)

	case head.ReadLatency > highFraction || head.WriteLatency > highFraction:
		if snap.MaxUtilization >= targetUtilization || smoothedUtil >= targetUtilization {
			return ConditionLatencyHigh, CauseCPUSaturation
		}
		// Latency high while nodes are idle: either the network is congested
		// or the configured consistency level forces extra round trips.
		if snap.WriteConsistency > snap.ReadConsistency && head.WriteLatency > head.ReadLatency {
			return ConditionLatencyHigh, CauseLooseConsistency
		}
		return ConditionLatencyHigh, CauseNetworkCongestion

	case head.Window < lowFraction && head.ReadLatency < lowFraction && head.WriteLatency < lowFraction &&
		head.Availability < lowFraction && smoothedUtil < lowUtilization:
		return ConditionOverProvisioned, CauseExcessCapacity

	default:
		return ConditionNominal, CauseUnknown
	}
}

// windowCause attributes a too-large inconsistency window.
//
// The heuristic mirrors what an operator would conclude from the same
// signals: if the nodes are busy, replica applies are queueing behind
// foreground work (CPU saturation); if the nodes are idle but the window is
// still large, propagation is delayed in the network; if neither holds, the
// configuration itself (asynchronous replication at CL=ONE) leaves the window
// unbounded and should be tightened.
func (a *Analyzer) windowCause(snap monitor.Snapshot, obs sla.Observation, agreement sla.SLA, smoothedUtil float64) Cause {
	if snap.MaxUtilization >= targetUtilization || smoothedUtil >= targetUtilization {
		return CauseCPUSaturation
	}
	if smoothedUtil < quietUtilization {
		// Plenty of CPU headroom yet replicas lag: latency inflation points at
		// the network when writes are slow too, otherwise at loose consistency.
		writeLatencyElevated := agreement.MaxWriteLatencyP99 > 0 &&
			obs.WriteLatencyP99 > 0.5*agreement.MaxWriteLatencyP99.Seconds()
		if writeLatencyElevated {
			return CauseNetworkCongestion
		}
		return CauseLooseConsistency
	}
	return CauseUnknown
}
