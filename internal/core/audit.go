package core

import "time"

// Audit trail: every MAPE iteration can record not just what the controller
// decided (the Decision) but *why* — which tenant signal drove the analysis,
// which cooldowns the planner consulted and whether they were active, which
// candidate actions were vetoed and for what reason, and which planning
// branch produced the final action. The trail is append-only, deterministic
// (everything in it derives from the virtual-time control loop) and entirely
// absent unless enabled, so audited and unaudited runs take identical
// decisions.

// CooldownCheck is one knowledge-base cooldown consult made while planning.
type CooldownCheck struct {
	// Kind is the action kind whose cooldown was consulted.
	Kind string `json:"kind"`
	// Scope is the consult's scope ("cluster", "tenant:x" or "class:gold").
	Scope string `json:"scope,omitempty"`
	// Active reports whether the cooldown blocked the candidate.
	Active bool `json:"active"`
}

// Veto is one candidate action the planner considered and rejected.
type Veto struct {
	// Kind is the vetoed action kind.
	Kind string `json:"kind"`
	// Scope is the candidate's scope, when not cluster-wide.
	Scope string `json:"scope,omitempty"`
	// Reason is why the candidate was rejected.
	Reason string `json:"reason"`
}

// AuditRecord is the causal account of one control interval.
type AuditRecord struct {
	// At is the interval's virtual time.
	At time.Duration `json:"at"`
	// Branch is the planning branch that produced the action
	// ("tenant-protection", or the condition branch that dispatched).
	Branch string `json:"branch"`
	// Condition and Cause echo the analysis verdict.
	Condition string `json:"condition"`
	Cause     string `json:"cause,omitempty"`
	// Tenant names the tenant whose penalty-weighted signal drove the
	// analysis ("" in single-tenant runs), and WindowP95 is the driving
	// window observation in seconds.
	Tenant    string  `json:"tenant,omitempty"`
	WindowP95 float64 `json:"window_p95"`
	// Cooldowns lists every knowledge-base cooldown consult, in consult
	// order; Vetoes lists every candidate rejected outside a cooldown.
	Cooldowns []CooldownCheck `json:"cooldowns,omitempty"`
	Vetoes    []Veto          `json:"vetoes,omitempty"`
	// Action, Applied and Err mirror the decision's outcome.
	Action  string `json:"action"`
	Applied bool   `json:"applied"`
	Err     string `json:"err,omitempty"`
}

// noteCooldown records one cooldown consult into the active audit record.
func (p *Planner) noteCooldown(kind ActionKind, scope Scope, active bool) {
	if p.trace == nil {
		return
	}
	p.trace.Cooldowns = append(p.trace.Cooldowns, CooldownCheck{
		Kind:   kind.String(),
		Scope:  scopeLabel(scope),
		Active: active,
	})
}

// noteVeto records one rejected candidate into the active audit record.
func (p *Planner) noteVeto(kind ActionKind, scope Scope, reason string) {
	if p.trace == nil {
		return
	}
	p.trace.Vetoes = append(p.trace.Vetoes, Veto{
		Kind:   kind.String(),
		Scope:  scopeLabel(scope),
		Reason: reason,
	})
}

// noteBranch records which planning branch produced the action.
func (p *Planner) noteBranch(branch string) {
	if p.trace != nil {
		p.trace.Branch = branch
	}
}

// scopeLabel renders a scope for the audit record; cluster scope is omitted.
func scopeLabel(s Scope) string {
	if s == (Scope{}) {
		return ""
	}
	return s.String()
}

// inCooldown is the audited form of kb.InCooldown: the consult and its
// outcome land in the active audit record.
func (p *Planner) inCooldown(kind ActionKind, scope Scope, at, cooldown time.Duration) bool {
	active := p.kb.InCooldown(kind, scope, at, cooldown)
	p.noteCooldown(kind, scope, active)
	return active
}

// EnableAudit turns on the controller's decision audit trail. Enabling it
// does not change any decision: the trail only observes.
func (c *Controller) EnableAudit() { c.audit = true }

// Audit returns a copy of the audit trail recorded so far (nil when auditing
// was never enabled).
func (c *Controller) Audit() []AuditRecord {
	if len(c.auditLog) == 0 {
		return nil
	}
	out := make([]AuditRecord, len(c.auditLog))
	copy(out, c.auditLog)
	return out
}
