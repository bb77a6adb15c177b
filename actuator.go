package autonosql

import (
	"errors"
	"fmt"

	"autonosql/internal/cluster"
	"autonosql/internal/core"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

// tenantActuator is the scoped-action execution surface of a multi-tenant
// scenario: it extends the core system actuator (cluster size, replication,
// consistency) with tenant-scoped admission control — executed against the
// tenant runtimes' token buckets — and class-scoped placement, executed
// against the store's class-aware replica selection. It is what makes the
// MAPE execute stage able to act on the tenant that triggered an adaptation
// instead of only on cluster-global knobs.
type tenantActuator struct {
	*core.SystemActuator
	scenario *Scenario
}

var (
	_ core.Actuator       = (*tenantActuator)(nil)
	_ core.TenantActuator = (*tenantActuator)(nil)
)

// runtime resolves a tenant name to its runtime.
func (a *tenantActuator) runtime(name string) (*tenant.Runtime, error) {
	for _, rt := range a.scenario.tenantRuntimes {
		if rt.Name() == name {
			return rt, nil
		}
	}
	return nil, fmt.Errorf("autonosql: unknown tenant %q", name)
}

// ThrottleTenant implements core.TenantActuator: the named tenant's token
// bucket is engaged (or re-rated) at opsPerSec.
func (a *tenantActuator) ThrottleTenant(name string, opsPerSec float64) error {
	rt, err := a.runtime(name)
	if err != nil {
		return err
	}
	return rt.Throttle(opsPerSec)
}

// UnthrottleTenant implements core.TenantActuator.
func (a *tenantActuator) UnthrottleTenant(name string) error {
	rt, err := a.runtime(name)
	if err != nil {
		return err
	}
	return rt.Unthrottle()
}

// PinClass implements core.TenantActuator: up to RF of the oldest serving
// nodes are dedicated to the class (oldest because scale-in removes newest
// first, so the dedicated pool survives later capacity changes), at least
// one shared node is always left for everyone else, and the store starts
// serving the class's tenants from the dedicated pool.
func (a *tenantActuator) PinClass(class string) error {
	if class == "" {
		return errors.New("autonosql: placement class is required")
	}
	var ids []store.TenantID
	for i, rt := range a.scenario.tenantRuntimes {
		if string(rt.Class().Class) == class {
			ids = append(ids, store.TenantID(i+1))
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("autonosql: no tenant of class %q", class)
	}
	// Only fully-up, still-shared nodes are eligible: a draining node would
	// leave the placement pool silently one node short once its decommission
	// finishes (its departure listener has already fired), a joining node
	// cannot serve yet, and a node another class already holds must not be
	// displaced — pinning a second class carves its pool out of the shared
	// remainder.
	var up []*cluster.Node
	for _, n := range a.scenario.cluster.AvailableNodes() {
		if n.State() == cluster.NodeUp && n.Class() == "" {
			up = append(up, n)
		}
	}
	count := a.scenario.store.ReplicationFactor()
	if count > len(up)-1 {
		count = len(up) - 1
	}
	if count < 1 {
		return errors.New("autonosql: cluster too small to dedicate nodes")
	}
	dedicated := make([]cluster.NodeID, 0, count)
	for _, n := range up[:count] {
		dedicated = append(dedicated, n.ID())
	}
	return a.scenario.store.PinClass(class, ids, dedicated)
}

// UnpinClass implements core.TenantActuator.
func (a *tenantActuator) UnpinClass() error {
	return a.scenario.store.UnpinClass()
}

// PinnedClass implements core.TenantActuator.
func (a *tenantActuator) PinnedClass() string {
	return a.scenario.store.PinnedClass()
}
