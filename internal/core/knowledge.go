package core

import (
	"time"

	"autonosql/internal/metrics"
)

// EffectRecord is one completed observation of an action's effect: the window
// estimate in the control interval before the action and in the interval
// after it had time to act.
type EffectRecord struct {
	Action       Action
	AppliedAt    time.Duration
	WindowBefore float64
	WindowAfter  float64
}

// WindowImprovement is the relative reduction of the window estimate
// (positive means the action helped).
func (r EffectRecord) WindowImprovement() float64 {
	if r.WindowBefore <= 0 {
		return 0
	}
	return (r.WindowBefore - r.WindowAfter) / r.WindowBefore
}

// Effectiveness summarises what the controller has learned about one action
// kind in the current environment.
type Effectiveness struct {
	// Samples is the number of completed effect observations.
	Samples uint64
	// MeanWindowImprovement is the mean relative window reduction.
	MeanWindowImprovement float64
}

// Harmful reports whether the action has, on average, made the window worse
// across at least two observations. The planner avoids repeating actions the
// knowledge base has flagged as harmful — this is how "add a replica under
// network congestion made things worse" stops being repeated.
func (e Effectiveness) Harmful() bool {
	return e.Samples >= 2 && e.MeanWindowImprovement < -0.05
}

// actionKey is the cooldown-map key: an action kind together with the scope
// it applied to. Keying cooldowns on the pair — not the kind alone — is what
// lets the planner throttle tenant B immediately after throttling tenant A:
// each tenant's admission actions cool down independently, while cluster-wide
// actions (the empty scope) behave exactly as before.
type actionKey struct {
	kind  ActionKind
	scope string
}

// KnowledgeBase is the K in MAPE-K. It keeps two things: a cooldown ledger
// of when each (action kind, scope) pair was last applied, and, per action
// kind, the mean relative window change the kind's settled applications
// bought — the input of the planner's Harmful veto. Effectiveness is learned
// per kind: what tightening consistency does to the window does not depend
// on who triggered it. Only one application is pending at a time; an action
// applied before the previous one settled replaces it, so the earlier
// action's effect is never scored.
type KnowledgeBase struct {
	lastApplied map[actionKey]time.Duration
	effects     map[ActionKind]*metrics.MeanVariance
	history     []EffectRecord

	// pending is the most recently applied action still waiting for its
	// "after" observation.
	pending        *EffectRecord
	pendingSettled time.Duration
}

// NewKnowledgeBase creates an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase {
	return &KnowledgeBase{
		lastApplied: make(map[actionKey]time.Duration),
		effects:     make(map[ActionKind]*metrics.MeanVariance),
	}
}

// RecordApplied notes that the action was applied at the given time with the
// given pre-action window estimate (seconds). settleTime is how long to wait
// before attributing post-action measurements to the action.
func (k *KnowledgeBase) RecordApplied(a Action, at time.Duration, windowBefore float64, settleTime time.Duration) {
	k.lastApplied[actionKey{kind: a.Kind, scope: a.Scope.key()}] = at
	k.pending = &EffectRecord{Action: a, AppliedAt: at, WindowBefore: windowBefore}
	k.pendingSettled = at + settleTime
}

// RecordObservation feeds the current window estimate. If an applied action
// is waiting for its post-action measurement and enough time has passed for
// the action to take effect, the effect record is completed.
func (k *KnowledgeBase) RecordObservation(at time.Duration, window float64) {
	if k.pending == nil || at < k.pendingSettled {
		return
	}
	rec := *k.pending
	rec.WindowAfter = window
	k.pending = nil

	mv, ok := k.effects[rec.Action.Kind]
	if !ok {
		mv = &metrics.MeanVariance{}
		k.effects[rec.Action.Kind] = mv
	}
	mv.Update(rec.WindowImprovement())
	k.history = append(k.history, rec)
}

// LastApplied returns when the cluster-scoped action kind was last applied
// and whether it ever was.
func (k *KnowledgeBase) LastApplied(kind ActionKind) (time.Duration, bool) {
	return k.LastAppliedScoped(kind, ClusterScope())
}

// LastAppliedScoped returns when the action kind was last applied to the
// given scope and whether it ever was.
func (k *KnowledgeBase) LastAppliedScoped(kind ActionKind, scope Scope) (time.Duration, bool) {
	at, ok := k.lastApplied[actionKey{kind: kind, scope: scope.key()}]
	return at, ok
}

// InCooldown reports whether the cluster-scoped action kind was applied more
// recently than cooldown before now.
func (k *KnowledgeBase) InCooldown(kind ActionKind, now, cooldown time.Duration) bool {
	return k.InCooldownScoped(kind, ClusterScope(), now, cooldown)
}

// InCooldownScoped reports whether the action kind was applied to the given
// scope more recently than cooldown before now. Different scopes never block
// each other: throttling tenant A leaves tenant B's throttle immediately
// available.
func (k *KnowledgeBase) InCooldownScoped(kind ActionKind, scope Scope, now, cooldown time.Duration) bool {
	at, ok := k.lastApplied[actionKey{kind: kind, scope: scope.key()}]
	if !ok {
		return false
	}
	return now-at < cooldown
}

// Effectiveness returns what has been learned about an action kind.
func (k *KnowledgeBase) Effectiveness(kind ActionKind) Effectiveness {
	mv, ok := k.effects[kind]
	if !ok {
		return Effectiveness{}
	}
	return Effectiveness{Samples: mv.Count(), MeanWindowImprovement: mv.Mean()}
}

// History returns a copy of all completed effect records in application
// order.
func (k *KnowledgeBase) History() []EffectRecord {
	out := make([]EffectRecord, len(k.history))
	copy(out, k.history)
	return out
}

// Applications returns how many actions have been applied (including ones
// whose effect has not settled yet).
func (k *KnowledgeBase) Applications() int {
	n := len(k.history)
	if k.pending != nil {
		n++
	}
	return n
}
