package core

import (
	"fmt"
	"time"

	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

// PlantState is the configuration of the system at planning time, read from
// the actuator.
type PlantState struct {
	ClusterSize       int
	ReplicationFactor int
	ReadConsistency   store.ConsistencyLevel
	WriteConsistency  store.ConsistencyLevel
	// PinnedClass is the SLA class currently holding dedicated nodes, or ""
	// (always "" for plants without a TenantActuator).
	PinnedClass string
}

// Planner turns an Analysis into at most one reconfiguration Action per
// control interval. Acting one step at a time, inside hysteresis bands and
// per-action cooldowns, is what makes the controller converge instead of
// oscillating — the stability concern the paper raises under RQ3.
type Planner struct {
	cfg Config
	kb  *KnowledgeBase

	// trace, when non-nil, is the audit record of the interval currently
	// being planned; the cooldown/veto/branch helpers in audit.go append to
	// it. Nil keeps planning untouched.
	trace *AuditRecord

	// nonBindingSince records, per throttled tenant, when its throttle was
	// first observed no longer binding (offered rate at or below the
	// admitted rate). The unthrottle holdoff runs against this timestamp —
	// the pressure must have been *gone* for the holdoff, not merely the
	// last admission action be old — so a one-interval dip in a burst never
	// releases the throttle. Keys are only ever looked up, never iterated,
	// so the map cannot leak ordering into the simulation.
	nonBindingSince map[string]time.Duration
}

// NewPlanner creates a planner, with its own empty knowledge base, using the
// given configuration. It takes a complete config; start from DefaultConfig.
func NewPlanner(cfg Config) *Planner {
	return &Planner{cfg: cfg, kb: NewKnowledgeBase(), nonBindingSince: make(map[string]time.Duration)}
}

// Plan selects the action for this control interval. It returns an
// ActionNone action (with a reason) when no change is warranted or every
// candidate is blocked by a cooldown or bound. Tenant protection — scoped
// admission and placement actions — is considered before the cluster-wide
// condition dispatch: when a gold tenant is in violation, shedding the noisy
// neighbour is tried before paying for more capacity, and when the pressure
// has passed, throttles are released before any other recovery.
func (p *Planner) Plan(an Analysis, plant PlantState) Action {
	if a, ok := p.planTenantProtection(an, plant); ok {
		p.noteBranch("tenant-protection")
		return a
	}
	switch an.Primary {
	case ConditionAvailabilityLow:
		p.noteBranch("availability")
		return p.planAvailability(an, plant)
	case ConditionWindowHigh:
		p.noteBranch("window")
		return p.planWindow(an, plant)
	case ConditionLatencyHigh:
		p.noteBranch("latency")
		return p.planLatency(an, plant)
	case ConditionOverProvisioned:
		p.noteBranch("cost-recovery")
		return p.planCostRecovery(an, plant)
	default:
		p.noteBranch("nominal")
		return p.planNominal(an, plant)
	}
}

// planTenantProtection is the scoped-action branch of the planner. While a
// gold tenant is in violation it escalates, cheapest first:
//
//  1. throttle the best unthrottled non-gold candidate (admission control
//     sheds the noisy neighbour's load before it reaches the store);
//  2. pin the gold class to dedicated nodes (placement isolates what
//     admission alone could not);
//  3. tighten an existing throttle another notch.
//
// Each step is guarded by a per-(kind, scope) cooldown, so protecting the
// cluster from tenant B is never delayed because tenant A was throttled a
// moment ago. On recovery — no gold violation and the driving tenant
// comfortably inside its bounds — throttles are released one per interval
// after a holdoff, then the class pin is lifted.
func (p *Planner) planTenantProtection(an Analysis, plant PlantState) (Action, bool) {
	if len(an.Snapshot.Tenants) == 0 {
		return Action{}, false
	}
	now := an.At
	// Maintain the non-binding clocks on every interval, whichever branch
	// runs below: a binding observation must reset a tenant's clock even
	// while gold pressure keeps the recovery loop from executing, or a
	// stale timestamp from before an interleaved burst would let a later
	// release bypass the holdoff entirely.
	for _, tt := range an.Throttled {
		if tt.Binding() {
			delete(p.nonBindingSince, tt.Name)
		} else if _, seen := p.nonBindingSince[tt.Name]; !seen {
			p.nonBindingSince[tt.Name] = now
		}
	}
	// Protection triggers inside the hysteresis band, not only at the hard
	// violation: the whole controller acts before a limit is reached, and
	// waiting for gold to actually breach would let the latency branch scale
	// out first — the exact action admission control exists to avoid.
	goldPressure := an.GoldViolation ||
		(tenant.Class(an.TenantClass) == tenant.Gold && an.Headroom.MaxRatio() >= highFraction)
	if goldPressure {
		if p.cfg.EnableAdmissionControl && an.ThrottleCandidate != "" {
			scope := TenantScope(an.ThrottleCandidate)
			offered := an.ThrottleCandidateRate
			rate := offered * p.cfg.ThrottleFraction
			if rate < p.cfg.MinThrottleRate {
				rate = p.cfg.MinThrottleRate
			}
			// A floor-clamped rate at or above what the candidate offers
			// would shed nothing: do not burn the control interval (and the
			// per-tenant cooldown) on a throttle that cannot bind — let the
			// escalation continue instead.
			if rate < offered &&
				!p.inCooldown(ActionThrottleTenant, scope, now, p.cfg.ThrottleCooldown) &&
				!p.inCooldown(ActionUnthrottleTenant, scope, now, p.cfg.ThrottleCooldown) {
				return Action{
					Kind:   ActionThrottleTenant,
					Scope:  scope,
					Rate:   rate,
					Reason: "gold tenant at risk; shed the noisy neighbour before scaling",
				}, true
			}
		}
		if p.cfg.EnablePlacementActions && plant.PinnedClass == "" &&
			plant.ClusterSize > plant.ReplicationFactor {
			scope := ClassScope(string(tenant.Gold))
			if !p.inCooldown(ActionPinTenantClass, scope, now, placementCooldown) &&
				!p.inCooldown(ActionUnpinTenantClass, scope, now, placementCooldown) {
				return Action{
					Kind:   ActionPinTenantClass,
					Scope:  scope,
					Reason: "gold tenant still at risk; dedicate replicas to the gold class",
				}, true
			}
		}
		if p.cfg.EnableAdmissionControl {
			// Tighten an already throttled tenant another notch, floor
			// permitting — but only when the tightened rate would actually
			// bind: squeezing a tenant that already offers less than the new
			// rate sheds nothing, and returning here would pre-empt the
			// cluster-wide action gold actually needs.
			for _, tt := range an.Throttled {
				rate := tt.Rate * p.cfg.ThrottleFraction
				if rate < p.cfg.MinThrottleRate || tt.Offered <= rate {
					continue
				}
				scope := TenantScope(tt.Name)
				if p.inCooldown(ActionThrottleTenant, scope, now, p.cfg.ThrottleCooldown) {
					continue
				}
				return Action{
					Kind:   ActionThrottleTenant,
					Scope:  scope,
					Rate:   rate,
					Reason: "gold tenant still at risk; tighten the throttle",
				}, true
			}
		}
		return Action{}, false
	}

	// Recovery: release scoped protection once the driving tenant is
	// comfortably inside its bounds, throttles first, placement last.
	if an.Headroom.MaxRatio() >= highFraction {
		return Action{}, false
	}
	if p.cfg.EnableAdmissionControl {
		for _, tt := range an.Throttled {
			// A binding throttle is still shedding an in-progress burst;
			// releasing it would only re-create the pressure (and, with the
			// throttle then in cooldown, push the planner into the scale-out
			// it was avoiding). The holdoff runs against how long the
			// throttle has been continuously non-binding — maintained at the
			// top of this function — so a single-interval dip mid-burst
			// never releases it.
			if tt.Binding() || now-p.nonBindingSince[tt.Name] < p.cfg.UnthrottleHoldoff {
				continue
			}
			scope := TenantScope(tt.Name)
			if p.inCooldown(ActionThrottleTenant, scope, now, p.cfg.UnthrottleHoldoff) ||
				p.inCooldown(ActionUnthrottleTenant, scope, now, p.cfg.UnthrottleHoldoff) {
				continue
			}
			delete(p.nonBindingSince, tt.Name)
			return Action{
				Kind:   ActionUnthrottleTenant,
				Scope:  scope,
				Reason: "pressure passed; release the throttled tenant",
			}, true
		}
	}
	if p.cfg.EnablePlacementActions && plant.PinnedClass != "" && len(an.Throttled) == 0 {
		scope := ClassScope(plant.PinnedClass)
		if !p.inCooldown(ActionPinTenantClass, scope, now, placementCooldown) &&
			!p.inCooldown(ActionUnpinTenantClass, scope, now, placementCooldown) {
			return Action{
				Kind:   ActionUnpinTenantClass,
				Scope:  scope,
				Reason: "pressure passed; return dedicated nodes to the shared pool",
			}, true
		}
	}
	return Action{}, false
}

// planAvailability reacts to failing operations: capacity is added if
// possible, otherwise the write consistency level is relaxed so fewer
// replicas must acknowledge each operation.
func (p *Planner) planAvailability(an Analysis, plant PlantState) Action {
	if a, ok := p.tryAddNode(an, plant, "operations failing beyond SLA"); ok {
		return a
	}
	if a, ok := p.tryRelaxWrite(an, plant, "operations failing and cluster cannot grow"); ok {
		return a
	}
	return Action{Kind: ActionNone, Reason: "availability low but no action available"}
}

// planWindow reacts to an inconsistency window at or beyond the SLA band,
// choosing the action by attributed cause.
func (p *Planner) planWindow(an Analysis, plant PlantState) Action {
	switch an.Cause {
	case CauseCPUSaturation:
		// Replica applies are queueing behind foreground work: more nodes
		// shrink per-node queues and with them the window.
		if a, ok := p.tryAddNode(an, plant, "window high, nodes saturated"); ok {
			return a
		}
		// Add-node is also refused in its cooldown or with scaling off;
		// only a cluster at MaxNodes is "at maximum".
		reason := "window high, nodes saturated, scale-out blocked"
		if plant.ClusterSize >= p.cfg.MaxNodes {
			reason = "window high, nodes saturated, cluster at maximum"
		}
		if a, ok := p.tryTightenWrite(an, plant, reason); ok {
			return a
		}

	case CauseNetworkCongestion:
		// The paper's explicit example of the wrong action: adding a replica
		// (or a node, which triggers rebalance streaming) under network
		// congestion only adds traffic. Tightening the write consistency level
		// bounds the client-visible window without any extra replication
		// traffic.
		if a, ok := p.tryTightenWrite(an, plant, "window high under network congestion"); ok {
			return a
		}
		return Action{Kind: ActionNone, Reason: "window high under congestion; consistency already strict"}

	case CauseLooseConsistency:
		if a, ok := p.tryTightenWrite(an, plant, "window high with idle resources"); ok {
			return a
		}
		if a, ok := p.tryTightenRead(an, plant, "window high, write consistency already strict"); ok {
			return a
		}

	default:
		if an.Snapshot.MeanUtilization >= targetUtilization {
			if a, ok := p.tryAddNode(an, plant, "window high, utilisation above target"); ok {
				return a
			}
		}
		if a, ok := p.tryTightenWrite(an, plant, "window high"); ok {
			return a
		}
		if a, ok := p.tryAddNode(an, plant, "window high, consistency already strict"); ok {
			return a
		}
	}
	return Action{Kind: ActionNone, Reason: "window high but all actions blocked"}
}

// planLatency reacts to latency at or beyond the SLA band.
func (p *Planner) planLatency(an Analysis, plant PlantState) Action {
	switch an.Cause {
	case CauseCPUSaturation:
		if a, ok := p.tryAddNode(an, plant, "latency high, nodes saturated"); ok {
			return a
		}
	case CauseLooseConsistency:
		// Strict write consistency is inflating latency; relax it only when
		// the window has real headroom, otherwise the cure re-creates the
		// original disease.
		if an.Headroom.Window < lowFraction {
			if a, ok := p.tryRelaxWrite(an, plant, "write latency high, window has headroom"); ok {
				return a
			}
		}
	case CauseNetworkCongestion:
		// More nodes will not help a congested network; wait it out.
		return Action{Kind: ActionNone, Reason: "latency high under network congestion; scaling would add traffic"}
	}
	if a, ok := p.tryAddNode(an, plant, "latency high"); ok {
		return a
	}
	return Action{Kind: ActionNone, Reason: "latency high but all actions blocked"}
}

// planCostRecovery trades comfortable SLA slack for lower cost.
func (p *Planner) planCostRecovery(an Analysis, plant PlantState) Action {
	// Do not scale in if the forecast says the capacity will be needed again
	// within the prediction horizon.
	if p.cfg.EnablePrediction && p.cfg.EnableScaling {
		needed := RequiredNodes(an.ForecastOpsPerSec, p.cfg.NodeCapacityOpsPerSec, targetUtilization)
		if needed >= plant.ClusterSize {
			return Action{Kind: ActionNone, Reason: "over-provisioned now but forecast needs current capacity"}
		}
	}
	if a, ok := p.tryRemoveNode(an, plant, "cluster over-provisioned"); ok {
		return a
	}
	// With the smallest allowed cluster, relax consistency back towards the
	// configured minimum to recover write latency and availability headroom.
	if plant.WriteConsistency > store.One && an.Headroom.Window < lowFraction/2 {
		if a, ok := p.tryRelaxWrite(an, plant, "window far below SLA at minimum cluster size"); ok {
			return a
		}
	}
	return Action{Kind: ActionNone, Reason: "over-provisioned but scale-in blocked"}
}

// planNominal handles the steady state: the only proactive work is
// prediction-driven scaling ahead of a rising load.
func (p *Planner) planNominal(an Analysis, plant PlantState) Action {
	if !p.cfg.EnablePrediction || !p.cfg.EnableScaling {
		return Action{Kind: ActionNone, Reason: "nominal"}
	}
	if an.LoadTrend <= 0 {
		return Action{Kind: ActionNone, Reason: "nominal"}
	}
	needed := RequiredNodes(an.ForecastOpsPerSec, p.cfg.NodeCapacityOpsPerSec, targetUtilization)
	if needed > plant.ClusterSize {
		reason := fmt.Sprintf("forecast %.0f ops/s needs %d nodes", an.ForecastOpsPerSec, needed)
		if a, ok := p.tryAddNode(an, plant, reason); ok {
			return a
		}
	}
	return Action{Kind: ActionNone, Reason: "nominal"}
}

// --- candidate helpers -------------------------------------------------------

// candidate wraps the common enable / cooldown checks.
func (p *Planner) candidate(kind ActionKind, enabled bool, cooldownOK bool, reason string) (Action, bool) {
	if !enabled {
		p.noteVeto(kind, ClusterScope(), "action kind disabled by configuration")
		return Action{}, false
	}
	if !cooldownOK {
		return Action{}, false
	}
	return Action{Kind: kind, Reason: reason}, true
}

func (p *Planner) tryAddNode(an Analysis, plant PlantState, reason string) (Action, bool) {
	if plant.ClusterSize >= p.cfg.MaxNodes {
		return Action{}, false
	}
	cooldownOK := !p.inCooldown(ActionAddNode, ClusterScope(), an.At, scaleOutCooldown)
	a, ok := p.candidate(ActionAddNode, p.cfg.EnableScaling, cooldownOK, reason)
	if !ok {
		return a, false
	}
	// Size the step proportionally to the shortfall: enough nodes to bring
	// the larger of the observed and forecast load back to the target
	// utilisation, bounded by the configured maximum.
	demand := an.Snapshot.ObservedOpsPerSec
	if p.cfg.EnablePrediction && an.ForecastOpsPerSec > demand {
		demand = an.ForecastOpsPerSec
	}
	needed := RequiredNodes(demand, p.cfg.NodeCapacityOpsPerSec, targetUtilization)
	step := needed - plant.ClusterSize
	if step < 1 {
		step = 1
	}
	if plant.ClusterSize+step > p.cfg.MaxNodes {
		step = p.cfg.MaxNodes - plant.ClusterSize
	}
	a.Count = step
	return a, true
}

func (p *Planner) tryRemoveNode(an Analysis, plant PlantState, reason string) (Action, bool) {
	if plant.ClusterSize <= p.cfg.MinNodes || plant.ClusterSize <= plant.ReplicationFactor {
		return Action{}, false
	}
	// A gold tenant in violation vetoes scale-in outright: shrinking the
	// cluster while the premium class is already breaching its SLA trades
	// the most expensive violation minutes for the cheapest node-hours.
	if an.GoldViolation {
		p.noteVeto(ActionRemoveNode, ClusterScope(), "gold tenant in violation vetoes scale-in")
		return Action{}, false
	}
	// Removing a node shortly after adding one is the oscillation the paper
	// warns about; the scale-in cooldown also applies to recent scale-outs.
	cooldownOK := !p.inCooldown(ActionRemoveNode, ClusterScope(), an.At, scaleInCooldown) &&
		!p.inCooldown(ActionAddNode, ClusterScope(), an.At, scaleInCooldown)
	return p.candidate(ActionRemoveNode, p.cfg.EnableScaling, cooldownOK, reason)
}

func (p *Planner) tryTightenWrite(an Analysis, plant PlantState, reason string) (Action, bool) {
	next, err := TightenConsistency(plant.WriteConsistency)
	if err != nil || next > store.All {
		return Action{}, false
	}
	// Tightening trades write latency for consistency; refuse when write
	// latency is itself near the SLA.
	if an.Headroom.WriteLatency > highFraction {
		p.noteVeto(ActionTightenWriteConsistency, ClusterScope(), "write latency too close to SLA to tighten")
		return Action{}, false
	}
	cooldownOK := !p.inCooldown(ActionTightenWriteConsistency, ClusterScope(), an.At, consistencyCooldown)
	return p.candidate(ActionTightenWriteConsistency, p.cfg.EnableConsistencyActions, cooldownOK, reason)
}

func (p *Planner) tryRelaxWrite(an Analysis, plant PlantState, reason string) (Action, bool) {
	next, err := RelaxConsistency(plant.WriteConsistency)
	if err != nil || next < store.One {
		return Action{}, false
	}
	cooldownOK := !p.inCooldown(ActionRelaxWriteConsistency, ClusterScope(), an.At, consistencyCooldown) &&
		!p.inCooldown(ActionTightenWriteConsistency, ClusterScope(), an.At, consistencyCooldown)
	return p.candidate(ActionRelaxWriteConsistency, p.cfg.EnableConsistencyActions, cooldownOK, reason)
}

func (p *Planner) tryTightenRead(an Analysis, plant PlantState, reason string) (Action, bool) {
	if _, err := TightenConsistency(plant.ReadConsistency); err != nil {
		return Action{}, false
	}
	if an.Headroom.ReadLatency > highFraction {
		p.noteVeto(ActionTightenReadConsistency, ClusterScope(), "read latency too close to SLA to tighten")
		return Action{}, false
	}
	cooldownOK := !p.inCooldown(ActionTightenReadConsistency, ClusterScope(), an.At, consistencyCooldown)
	return p.candidate(ActionTightenReadConsistency, p.cfg.EnableConsistencyActions, cooldownOK, reason)
}
