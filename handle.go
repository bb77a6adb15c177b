package autonosql

import (
	"errors"
	"fmt"
	"time"

	"autonosql/internal/cluster"
)

// Handle is the view of a running scenario passed to interventions registered
// with Scenario.At. It exposes the same reconfiguration surface the
// autonomous controller uses, plus fault and interference injection, so
// experiments and examples can manipulate the live system mid-run.
type Handle struct {
	scenario *Scenario
}

// Now returns the current virtual time.
func (h *Handle) Now() time.Duration { return h.scenario.engine.Now() }

// ClusterSize returns the number of nodes currently able to serve requests.
func (h *Handle) ClusterSize() int { return h.scenario.cluster.Size() }

// ReplicationFactor returns the store's current replication factor.
func (h *Handle) ReplicationFactor() int { return h.scenario.store.ReplicationFactor() }

// WriteConsistency returns the store's current write consistency level.
func (h *Handle) WriteConsistency() ConsistencyLevel {
	return consistencyFromStore(h.scenario.store.WriteConsistency())
}

// ReadConsistency returns the store's current read consistency level.
func (h *Handle) ReadConsistency() ConsistencyLevel {
	return consistencyFromStore(h.scenario.store.ReadConsistency())
}

// SetWriteConsistency changes the write consistency level of subsequent
// writes.
func (h *Handle) SetWriteConsistency(cl ConsistencyLevel) error {
	level, err := cl.toStore()
	if err != nil {
		return err
	}
	h.scenario.store.SetWriteConsistency(level)
	return nil
}

// SetReadConsistency changes the read consistency level of subsequent reads.
func (h *Handle) SetReadConsistency(cl ConsistencyLevel) error {
	level, err := cl.toStore()
	if err != nil {
		return err
	}
	h.scenario.store.SetReadConsistency(level)
	return nil
}

// SetReplicationFactor changes the replication factor of subsequent writes.
func (h *Handle) SetReplicationFactor(rf int) error {
	return h.scenario.store.SetReplicationFactor(rf)
}

// AddNode provisions one extra node; it becomes available after the
// cluster's bootstrap time.
func (h *Handle) AddNode() error { return h.scenario.actuator.AddNode() }

// RemoveNode decommissions the newest fully-up node, under the controller's
// policy: a node dedicated to a pinned SLA class goes only when no shared
// node is up.
func (h *Handle) RemoveNode() error { return h.scenario.actuator.RemoveNode() }

// FailNode crashes the node with the given ordinal (0 = oldest serving node).
// The node keeps its ring position and can be recovered with RecoverNode.
func (h *Handle) FailNode(ordinal int) error {
	nodes := h.scenario.cluster.AvailableNodes()
	if ordinal < 0 || ordinal >= len(nodes) {
		return fmt.Errorf("autonosql: no serving node with ordinal %d", ordinal)
	}
	return h.scenario.cluster.FailNode(nodes[ordinal].ID())
}

// RecoverNode brings the most recently failed node back up. It returns an
// error when no node is down.
func (h *Handle) RecoverNode() error {
	for _, n := range h.scenario.cluster.Nodes() {
		if n.State() == cluster.NodeDown {
			return h.scenario.cluster.RecoverNode(n.ID())
		}
	}
	return errors.New("autonosql: no failed node to recover")
}

// SetNetworkCongestion sets the externally imposed network congestion level
// in [0, 1], modelling congestion caused by other tenants or by a partial
// network fault.
func (h *Handle) SetNetworkCongestion(level float64) {
	h.scenario.cluster.Network().SetCongestion(level)
}

// Partition isolates the given serving nodes (by ordinal, 0 = oldest) from
// the rest of the cluster: node-to-node traffic across the cut is
// undeliverable until HealPartition, while clients still reach both sides.
func (h *Handle) Partition(ordinals ...int) error {
	nodes := h.scenario.cluster.AvailableNodes()
	net := h.scenario.cluster.Network()
	seen := make(map[int]bool, len(ordinals))
	ids := make([]cluster.NodeID, 0, len(ordinals))
	newlyIsolated := 0
	for _, ord := range ordinals {
		if ord < 0 || ord >= len(nodes) {
			return fmt.Errorf("autonosql: no serving node with ordinal %d", ord)
		}
		if seen[ord] {
			continue
		}
		seen[ord] = true
		id := nodes[ord].ID()
		if !net.Isolated(id) {
			newlyIsolated++
		}
		ids = append(ids, id)
	}
	// Count what the cut would look like after this call, including serving
	// nodes isolated by earlier calls or faults: at least one connected
	// serving node must remain, or the "partition" is a silent global repair
	// freeze. Only serving nodes count on either side — a crashed node that
	// is also isolated is already outside the denominator.
	isolatedServing := 0
	for _, n := range nodes {
		if net.Isolated(n.ID()) {
			isolatedServing++
		}
	}
	if isolatedServing+newlyIsolated >= len(nodes) {
		return errors.New("autonosql: cannot isolate every node")
	}
	net.Isolate(ids)
	return nil
}

// HealPartition reconnects every currently isolated node, whatever isolated
// it.
func (h *Handle) HealPartition() {
	h.scenario.cluster.Network().ClearPartition()
}

// SetBackgroundLoad sets the noisy-neighbour CPU load fraction in [0, 0.95]
// on every node.
func (h *Handle) SetBackgroundLoad(fraction float64) {
	h.scenario.cluster.SetBackgroundLoad(fraction)
}

// ThrottleTenant engages (or re-rates) admission control on the named
// tenant: arrivals beyond opsPerSec are shed before they reach the store,
// counted as rejections in the tenant's ground truth. It fails in a
// single-tenant scenario.
func (h *Handle) ThrottleTenant(name string, opsPerSec float64) error {
	if h.scenario.tenantAct == nil {
		return errors.New("autonosql: scenario has no tenants")
	}
	return h.scenario.tenantAct.ThrottleTenant(name, opsPerSec)
}

// UnthrottleTenant removes admission control from the named tenant.
func (h *Handle) UnthrottleTenant(name string) error {
	if h.scenario.tenantAct == nil {
		return errors.New("autonosql: scenario has no tenants")
	}
	return h.scenario.tenantAct.UnthrottleTenant(name)
}

// PinClass dedicates nodes to the named SLA class: the class's tenants place
// replica sets and coordinators on the dedicated pool, everyone else prefers
// the remainder. It fails in a single-tenant scenario.
func (h *Handle) PinClass(class string) error {
	if h.scenario.tenantAct == nil {
		return errors.New("autonosql: scenario has no tenants")
	}
	return h.scenario.tenantAct.PinClass(class)
}

// UnpinClass releases the pinned class's dedicated nodes.
func (h *Handle) UnpinClass() error {
	if h.scenario.tenantAct == nil {
		return errors.New("autonosql: scenario has no tenants")
	}
	return h.scenario.tenantAct.UnpinClass()
}

// PinnedClass returns the SLA class currently holding dedicated nodes, or "".
func (h *Handle) PinnedClass() string {
	return h.scenario.store.PinnedClass()
}

// TrueWindowP95 returns the ground-truth 95th-percentile inconsistency window
// (seconds) over recent writes. Experiments use it; the controller never
// sees it.
func (h *Handle) TrueWindowP95() float64 {
	return h.scenario.store.RecentWindowQuantile(0.95)
}

// EstimatedWindowP95 returns the monitor's current 95th-percentile window
// estimate in seconds.
func (h *Handle) EstimatedWindowP95() float64 {
	return h.scenario.monitor.WindowQuantile(0.95)
}
