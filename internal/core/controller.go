package core

import (
	"errors"
	"fmt"
	"time"

	"autonosql/internal/monitor"
	"autonosql/internal/store"
)

// Decision is the record of one control interval: what the controller saw,
// what it concluded, what it did and whether the actuation succeeded.
type Decision struct {
	At       time.Duration
	Analysis Analysis
	Action   Action
	Applied  bool
	Err      error

	// Plant state after the decision was executed.
	ClusterSize       int
	ReplicationFactor int
	ReadConsistency   store.ConsistencyLevel
	WriteConsistency  store.ConsistencyLevel
	// PinnedClass is the SLA class holding dedicated nodes after execution
	// ("" when none, or when the plant has no TenantActuator).
	PinnedClass string
}

// String renders the decision compactly for logs. In a multi-tenant run the
// line names the tenant whose penalty-weighted signal drove the decision; a
// scoped action additionally names its scope and target (the Action renders
// them), and an active class pin is shown as part of the plant state.
func (d Decision) String() string {
	status := "noop"
	if d.Applied {
		status = "applied"
	} else if d.Err != nil {
		status = "failed: " + d.Err.Error()
	}
	s := fmt.Sprintf("[%8s] %-20s %-9s window=%.0fms util=%.2f nodes=%d cl=%s/%s rf=%d",
		d.At.Truncate(time.Second), d.Action.String(), status,
		d.Analysis.Snapshot.WindowP95*1000, d.Analysis.Snapshot.MeanUtilization,
		d.ClusterSize, d.ReadConsistency, d.WriteConsistency, d.ReplicationFactor)
	if d.PinnedClass != "" {
		s += " pinned=" + d.PinnedClass
	}
	if d.Analysis.Tenant != "" {
		s += fmt.Sprintf(" tenant=%s(%s)", d.Analysis.Tenant, d.Analysis.TenantClass)
		if d.Analysis.GoldViolation {
			s += " gold-violation"
		}
	}
	return s
}

// Controller is the SLA-driven autonomous controller: the paper's
// contribution. Each control interval it analyses the latest monitoring
// snapshot, plans at most one reconfiguration action and executes it through
// the actuator, recording everything it did.
type Controller struct {
	cfg      Config
	actuator Actuator
	analyzer *Analyzer
	planner  *Planner

	decisions []Decision
	applied   int
	failed    int

	// audit, when enabled, records one AuditRecord per Step with the causal
	// inputs behind the decision (driving signal, cooldown consults, vetoes,
	// planning branch). Off by default; enabling it changes no decision.
	audit    bool
	auditLog []AuditRecord
}

// New creates a controller driving the given actuator. The owner calls Step
// once per control interval with the latest monitoring snapshot. It takes a
// complete config; start from DefaultConfig.
func New(cfg Config, actuator Actuator) (*Controller, error) {
	if actuator == nil {
		return nil, errors.New("core: actuator is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:      cfg,
		actuator: actuator,
		analyzer: NewAnalyzer(cfg),
		planner:  NewPlanner(cfg),
	}, nil
}

// Step runs one MAPE iteration on the given snapshot and returns the
// decision taken.
func (c *Controller) Step(snap monitor.Snapshot) Decision {
	// Monitor + Analyze.
	analysis := c.analyzer.Analyze(snap)

	// Plan.
	plant := PlantState{
		ClusterSize:       c.actuator.ClusterSize(),
		ReplicationFactor: c.actuator.ReplicationFactor(),
		ReadConsistency:   c.actuator.ReadConsistency(),
		WriteConsistency:  c.actuator.WriteConsistency(),
	}
	if ta, ok := c.actuator.(TenantActuator); ok {
		plant.PinnedClass = ta.PinnedClass()
	}
	var rec *AuditRecord
	if c.audit {
		rec = &AuditRecord{
			At:        snap.At,
			Condition: analysis.Primary.String(),
			Cause:     analysis.Cause.String(),
			Tenant:    analysis.Tenant,
			WindowP95: analysis.Snapshot.WindowP95,
		}
		c.planner.trace = rec
	}
	action := c.planner.Plan(analysis, plant)
	c.planner.trace = nil

	// Execute.
	decision := Decision{At: snap.At, Analysis: analysis, Action: action}
	if !action.IsNoop() {
		err := c.execute(action, plant)
		decision.Err = err
		decision.Applied = err == nil
		if err == nil {
			c.applied++
			c.planner.kb.RecordApplied(action, snap.At)
		} else {
			c.failed++
		}
	}

	decision.ClusterSize = c.actuator.ClusterSize()
	decision.ReplicationFactor = c.actuator.ReplicationFactor()
	decision.ReadConsistency = c.actuator.ReadConsistency()
	decision.WriteConsistency = c.actuator.WriteConsistency()
	if ta, ok := c.actuator.(TenantActuator); ok {
		decision.PinnedClass = ta.PinnedClass()
	}
	c.decisions = append(c.decisions, decision)
	if rec != nil {
		rec.Action = action.String()
		rec.Applied = decision.Applied
		if decision.Err != nil {
			rec.Err = decision.Err.Error()
		}
		c.auditLog = append(c.auditLog, *rec)
	}
	return decision
}

// execute applies the planned action through the actuator.
func (c *Controller) execute(a Action, plant PlantState) error {
	switch a.Kind {
	case ActionTightenWriteConsistency:
		next, err := TightenConsistency(plant.WriteConsistency)
		if err != nil {
			return err
		}
		return c.actuator.SetWriteConsistency(next)
	case ActionRelaxWriteConsistency:
		next, err := RelaxConsistency(plant.WriteConsistency)
		if err != nil {
			return err
		}
		return c.actuator.SetWriteConsistency(next)
	case ActionTightenReadConsistency:
		next, err := TightenConsistency(plant.ReadConsistency)
		if err != nil {
			return err
		}
		return c.actuator.SetReadConsistency(next)
	case ActionAddNode:
		var firstErr error
		for i := 0; i < a.Steps(); i++ {
			if err := c.actuator.AddNode(); err != nil {
				firstErr = err
				break
			}
		}
		return firstErr
	case ActionRemoveNode:
		var firstErr error
		for i := 0; i < a.Steps(); i++ {
			if err := c.actuator.RemoveNode(); err != nil {
				firstErr = err
				break
			}
		}
		return firstErr
	case ActionThrottleTenant, ActionUnthrottleTenant, ActionPinTenantClass, ActionUnpinTenantClass:
		ta, ok := c.actuator.(TenantActuator)
		if !ok {
			return ErrNoTenantActuator
		}
		switch a.Kind {
		case ActionThrottleTenant:
			return ta.ThrottleTenant(a.Scope.Tenant, a.Rate)
		case ActionUnthrottleTenant:
			return ta.UnthrottleTenant(a.Scope.Tenant)
		case ActionPinTenantClass:
			return ta.PinClass(a.Scope.Class)
		default:
			return ta.UnpinClass()
		}
	default:
		return fmt.Errorf("core: cannot execute action %v", a.Kind)
	}
}

// Decisions returns a copy of every decision taken so far.
func (c *Controller) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// Reconfigurations returns how many actions were successfully applied.
func (c *Controller) Reconfigurations() int { return c.applied }

// FailedActions returns how many planned actions failed to apply.
func (c *Controller) FailedActions() int { return c.failed }

// Converged reports whether the controller has settled: no action was
// applied in the most recent n decisions (n >= 1). It is the convergence
// criterion the stability experiments check.
func (c *Controller) Converged(n int) bool {
	if n < 1 {
		n = 1
	}
	if len(c.decisions) < n {
		return false
	}
	for _, d := range c.decisions[len(c.decisions)-n:] {
		if d.Applied {
			return false
		}
	}
	return true
}
