package core

import (
	"errors"
	"fmt"

	"autonosql/internal/cluster"
	"autonosql/internal/store"
)

// ActionKind enumerates the reconfiguration actions the planner can take:
// the consistency levels of query operations, the number of nodes, and the
// tenant-scoped admission and class-scoped placement knobs. The replication
// factor, the paper's third knob, is changed by experiments through the
// scenario handle; no planner branch chooses it.
type ActionKind int

// Reconfiguration actions.
const (
	// ActionNone leaves the system unchanged.
	ActionNone ActionKind = iota + 1
	// ActionTightenWriteConsistency raises the write consistency level one
	// step (ONE -> TWO -> QUORUM -> ALL), shrinking the client-observable
	// inconsistency window at the cost of write latency.
	ActionTightenWriteConsistency
	// ActionRelaxWriteConsistency lowers the write consistency level one
	// step, trading consistency for latency and availability.
	ActionRelaxWriteConsistency
	// ActionTightenReadConsistency raises the read consistency level one step.
	ActionTightenReadConsistency
	// ActionAddNode provisions one extra node.
	ActionAddNode
	// ActionRemoveNode decommissions one node.
	ActionRemoveNode
	// ActionThrottleTenant enables (or tightens) admission control on one
	// tenant: the tenant's arrivals are rate-limited by a token bucket and
	// excess operations are shed before they reach the store. It is the
	// planner's way to protect a premium tenant from a noisy neighbour
	// without paying for extra capacity. Tenant-scoped.
	ActionThrottleTenant
	// ActionUnthrottleTenant removes admission control from one tenant once
	// the pressure that justified it has passed. Tenant-scoped.
	ActionUnthrottleTenant
	// ActionPinTenantClass dedicates a set of nodes to one SLA class: the
	// class's tenants place their replica sets (and coordinators) on the
	// dedicated nodes, everyone else prefers the remainder. Class-scoped.
	ActionPinTenantClass
	// ActionUnpinTenantClass releases a class's dedicated nodes back into the
	// shared pool. Class-scoped.
	ActionUnpinTenantClass
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActionNone:
		return "none"
	case ActionTightenWriteConsistency:
		return "tighten-write-cl"
	case ActionRelaxWriteConsistency:
		return "relax-write-cl"
	case ActionTightenReadConsistency:
		return "tighten-read-cl"
	case ActionAddNode:
		return "add-node"
	case ActionRemoveNode:
		return "remove-node"
	case ActionThrottleTenant:
		return "throttle-tenant"
	case ActionUnthrottleTenant:
		return "unthrottle-tenant"
	case ActionPinTenantClass:
		return "pin-class"
	case ActionUnpinTenantClass:
		return "unpin-class"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// ActionKinds lists every concrete action (excluding ActionNone) in a stable
// order, for iteration in tests and reports.
func ActionKinds() []ActionKind {
	return []ActionKind{
		ActionTightenWriteConsistency,
		ActionRelaxWriteConsistency,
		ActionTightenReadConsistency,
		ActionAddNode,
		ActionRemoveNode,
		ActionThrottleTenant,
		ActionUnthrottleTenant,
		ActionPinTenantClass,
		ActionUnpinTenantClass,
	}
}

// Scope identifies what an action applies to. The zero value is the
// cluster-wide scope every pre-existing action kind uses; tenant-scoped
// actions (admission control) name the tenant, class-scoped actions
// (placement) name the SLA class. Carrying the scope on the action — instead
// of leaving every knob global — is what lets the execute stage act on the
// context that triggered the adaptation.
type Scope struct {
	// Tenant names the tenant a tenant-scoped action applies to.
	Tenant string
	// Class names the SLA class a class-scoped action applies to.
	Class string
}

// ClusterScope returns the cluster-wide scope.
func ClusterScope() Scope { return Scope{} }

// TenantScope returns the scope of an action applying to one tenant.
func TenantScope(name string) Scope { return Scope{Tenant: name} }

// ClassScope returns the scope of an action applying to one SLA class.
func ClassScope(class string) Scope { return Scope{Class: class} }

// IsCluster reports whether the scope is cluster-wide.
func (s Scope) IsCluster() bool { return s.Tenant == "" && s.Class == "" }

// Target returns the scoped entity's name (the tenant or class), or "" for
// the cluster-wide scope.
func (s Scope) Target() string {
	if s.Tenant != "" {
		return s.Tenant
	}
	return s.Class
}

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch {
	case s.Tenant != "":
		return "tenant " + s.Tenant
	case s.Class != "":
		return "class " + s.Class
	default:
		return "cluster"
	}
}

// key renders the scope as a compact cooldown-map key. Tenant and class
// names live in separate namespaces so a tenant named like a class cannot
// alias its cooldowns.
func (s Scope) key() string {
	switch {
	case s.Tenant != "":
		return "t:" + s.Tenant
	case s.Class != "":
		return "c:" + s.Class
	default:
		return ""
	}
}

// Action is a planned reconfiguration with the reason the planner chose it.
type Action struct {
	Kind ActionKind
	// Scope is what the action applies to: the whole cluster (zero value),
	// one tenant, or one SLA class.
	Scope Scope
	// Count is how many times the action is applied in one decision; it is
	// only meaningful for add-node / remove-node, where the planner sizes the
	// step proportionally to the capacity shortfall (zero means one).
	Count int
	// Rate is the admission rate in ops/s a throttle action imposes; zero for
	// every other kind.
	Rate   float64
	Reason string
}

// IsNoop reports whether the action changes nothing.
func (a Action) IsNoop() bool { return a.Kind == ActionNone || a.Kind == 0 }

// Steps returns how many times the action should be applied (at least one).
func (a Action) Steps() int {
	if a.Count < 1 {
		return 1
	}
	return a.Count
}

// String implements fmt.Stringer. Scoped actions name their target, and
// throttle actions carry the imposed admission rate, so a decision log line
// reads e.g. "throttle-tenant[batch @400ops/s] (...)".
func (a Action) String() string {
	if a.IsNoop() {
		return "none"
	}
	name := a.Kind.String()
	if !a.Scope.IsCluster() {
		if a.Rate > 0 {
			name = fmt.Sprintf("%s[%s @%.0fops/s]", name, a.Scope.Target(), a.Rate)
		} else {
			name = fmt.Sprintf("%s[%s]", name, a.Scope.Target())
		}
	}
	if a.Steps() > 1 {
		name = fmt.Sprintf("%s x%d", name, a.Steps())
	}
	if a.Reason == "" {
		return name
	}
	return fmt.Sprintf("%s (%s)", name, a.Reason)
}

// Actuator is the interface through which controllers observe and change the
// configuration and deployment of the database system. It abstracts the
// store's consistency knobs and the cluster's membership operations so that
// controllers can be unit-tested against a fake plant.
type Actuator interface {
	// ClusterSize returns the number of nodes currently able to serve traffic.
	ClusterSize() int
	// ReplicationFactor returns the current replication factor.
	ReplicationFactor() int
	// ReadConsistency returns the current read consistency level.
	ReadConsistency() store.ConsistencyLevel
	// WriteConsistency returns the current write consistency level.
	WriteConsistency() store.ConsistencyLevel

	// SetReadConsistency changes the read consistency level.
	SetReadConsistency(cl store.ConsistencyLevel) error
	// SetWriteConsistency changes the write consistency level.
	SetWriteConsistency(cl store.ConsistencyLevel) error
	// AddNode provisions one extra node.
	AddNode() error
	// RemoveNode decommissions one node.
	RemoveNode() error
}

// TenantActuator is the optional actuator extension scoped actions execute
// through. A plant that hosts named tenants implements it alongside Actuator;
// the controller discovers it with a type assertion and fails tenant- or
// class-scoped actions cleanly when the plant does not support them.
type TenantActuator interface {
	// ThrottleTenant imposes (or tightens) admission control on the named
	// tenant: arrivals beyond opsPerSec are shed before they reach the store.
	ThrottleTenant(name string, opsPerSec float64) error
	// UnthrottleTenant removes admission control from the named tenant.
	UnthrottleTenant(name string) error

	// PinClass dedicates nodes to the named SLA class: the class's tenants
	// place replica sets and coordinators on the dedicated nodes, everyone
	// else prefers the remainder. At most one class is pinned at a time.
	PinClass(class string) error
	// UnpinClass releases the pinned class's nodes back into the shared pool.
	UnpinClass() error
	// PinnedClass returns the currently pinned class, or "".
	PinnedClass() string
}

// Errors returned by actuators.
var (
	// ErrConsistencyBound is returned when a consistency level cannot be
	// tightened or relaxed any further.
	ErrConsistencyBound = errors.New("core: consistency level already at bound")
	// ErrNoRemovableNode is returned when no node is eligible for removal.
	ErrNoRemovableNode = errors.New("core: no removable node")
	// ErrNoTenantActuator is returned when a tenant- or class-scoped action is
	// executed against a plant that does not implement TenantActuator.
	ErrNoTenantActuator = errors.New("core: actuator does not support tenant-scoped actions")
)

// consistencyLadder is the ordered set of levels the controller steps
// through.
var consistencyLadder = []store.ConsistencyLevel{store.One, store.Two, store.Quorum, store.All}

// TightenConsistency returns the next stricter level, or an error when the
// level is already the strictest.
func TightenConsistency(cl store.ConsistencyLevel) (store.ConsistencyLevel, error) {
	for i, l := range consistencyLadder {
		if l == cl {
			if i+1 < len(consistencyLadder) {
				return consistencyLadder[i+1], nil
			}
			return cl, ErrConsistencyBound
		}
	}
	return cl, fmt.Errorf("core: unknown consistency level %v", cl)
}

// RelaxConsistency returns the next looser level, or an error when the level
// is already the loosest.
func RelaxConsistency(cl store.ConsistencyLevel) (store.ConsistencyLevel, error) {
	for i, l := range consistencyLadder {
		if l == cl {
			if i > 0 {
				return consistencyLadder[i-1], nil
			}
			return cl, ErrConsistencyBound
		}
	}
	return cl, fmt.Errorf("core: unknown consistency level %v", cl)
}

// SystemActuator binds the Actuator interface to the simulated store and
// cluster. Node removal always targets the newest (highest-ID) node that is
// fully up, which mirrors the scale-in policy of common cloud autoscalers.
type SystemActuator struct {
	store   *store.Store
	cluster *cluster.Cluster
}

var _ Actuator = (*SystemActuator)(nil)

// NewSystemActuator creates an actuator bound to the given store and cluster.
func NewSystemActuator(st *store.Store, cl *cluster.Cluster) (*SystemActuator, error) {
	if st == nil || cl == nil {
		return nil, errors.New("core: store and cluster are required")
	}
	return &SystemActuator{store: st, cluster: cl}, nil
}

// ClusterSize implements Actuator.
func (a *SystemActuator) ClusterSize() int { return a.cluster.Size() }

// ReplicationFactor implements Actuator.
func (a *SystemActuator) ReplicationFactor() int { return a.store.ReplicationFactor() }

// ReadConsistency implements Actuator.
func (a *SystemActuator) ReadConsistency() store.ConsistencyLevel { return a.store.ReadConsistency() }

// WriteConsistency implements Actuator.
func (a *SystemActuator) WriteConsistency() store.ConsistencyLevel {
	return a.store.WriteConsistency()
}

// SetReadConsistency implements Actuator.
func (a *SystemActuator) SetReadConsistency(cl store.ConsistencyLevel) error {
	if cl < store.One || cl > store.All {
		return fmt.Errorf("core: invalid read consistency %v", cl)
	}
	a.store.SetReadConsistency(cl)
	return nil
}

// SetWriteConsistency implements Actuator.
func (a *SystemActuator) SetWriteConsistency(cl store.ConsistencyLevel) error {
	if cl < store.One || cl > store.All {
		return fmt.Errorf("core: invalid write consistency %v", cl)
	}
	a.store.SetWriteConsistency(cl)
	return nil
}

// AddNode implements Actuator.
func (a *SystemActuator) AddNode() error {
	_, err := a.cluster.AddNode()
	return err
}

// RemoveNode implements Actuator. It removes the newest node that is fully
// up; joining or draining nodes are left alone. Nodes dedicated to a pinned
// SLA class are only removed when no shared node is eligible: scale-in must
// not quietly dismantle the placement the controller set up for the premium
// class.
func (a *SystemActuator) RemoveNode() error {
	nodes := a.cluster.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].State() == cluster.NodeUp && nodes[i].Class() == "" {
			return a.cluster.RemoveNode(nodes[i].ID())
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].State() == cluster.NodeUp {
			return a.cluster.RemoveNode(nodes[i].ID())
		}
	}
	return ErrNoRemovableNode
}
