package core

import "time"

// actionKey is the cooldown-map key: an action kind together with the scope
// it applied to. Keying cooldowns on the pair — not the kind alone — is what
// lets the planner throttle tenant B immediately after throttling tenant A:
// each tenant's admission actions cool down independently, while cluster-wide
// actions (the empty scope) behave exactly as before.
type actionKey struct {
	kind  ActionKind
	scope string
}

// KnowledgeBase is the K in MAPE-K: a cooldown ledger of when each (action
// kind, scope) pair was last applied. The planner consults it so that no
// action repeats, and no counter-action follows, before the system has had
// time to show the previous one's effect.
type KnowledgeBase struct {
	lastApplied map[actionKey]time.Duration
}

// NewKnowledgeBase creates an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase {
	return &KnowledgeBase{lastApplied: make(map[actionKey]time.Duration)}
}

// RecordApplied notes that the action was applied at the given time.
func (k *KnowledgeBase) RecordApplied(a Action, at time.Duration) {
	k.lastApplied[actionKey{kind: a.Kind, scope: a.Scope.key()}] = at
}

// LastApplied returns when the action kind was last applied to the given
// scope and whether it ever was.
func (k *KnowledgeBase) LastApplied(kind ActionKind, scope Scope) (time.Duration, bool) {
	at, ok := k.lastApplied[actionKey{kind: kind, scope: scope.key()}]
	return at, ok
}

// InCooldown reports whether the action kind was applied to the given scope
// more recently than cooldown before now. Different scopes never block each
// other: throttling tenant A leaves tenant B's throttle immediately
// available.
func (k *KnowledgeBase) InCooldown(kind ActionKind, scope Scope, now, cooldown time.Duration) bool {
	at, ok := k.LastApplied(kind, scope)
	return ok && now-at < cooldown
}
