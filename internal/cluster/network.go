package cluster

import (
	"math/rand"
	"time"

	"autonosql/internal/sim"
)

// The datacentre network model: a single-datacentre deployment with ~0.5 ms
// node-to-node latency.
const (
	// BaseLatency is the median one-way latency between any two nodes.
	BaseLatency = 500 * time.Microsecond
	// ClientLatency is the median one-way latency between clients and the
	// coordinator node they talk to.
	ClientLatency = 1 * time.Millisecond
	// JitterSigma is the log-normal shape parameter of latency jitter.
	JitterSigma = 0.3
	// congestionSensitivity scales how strongly the congestion level
	// inflates latency: latency *= 1 + sensitivity*congestion.
	congestionSensitivity = 8
)

// Network models inter-node and client-node message delays. A congestion
// level in [0, 1] uniformly inflates delays; the noisy-neighbour profile and
// experiment scenarios drive it over time. Replication traffic itself also
// contributes: each in-flight replica stream adds a small amount of
// self-congestion, which is what makes "add a replica under network
// congestion" the wrong reconfiguration action, exactly as the paper warns.
//
// The network also models two injectable fault conditions: a latency storm
// (an extra congestion component composed with, not overwriting, the
// tenant-driven level) and a partition. A partition isolates a set of nodes
// from the rest of the cluster: node-to-node messages across the cut are
// undeliverable, while nodes on the same side — and clients, which reach
// every node — are unaffected.
//
// The partition model is a single cut: every isolated node is on one side,
// the connected remainder on the other. Concurrent partition faults
// therefore merge — nodes isolated by disjoint events share the isolated
// side and remain mutually reachable. Modelling k independent cuts would
// need per-group membership on the hot path; the single-cut model captures
// the phenomenon the scenarios measure (minority islands diverging from the
// majority) at a nil-map check's cost.
type Network struct {
	rng        *rand.Rand
	congestion float64
	selfLoad   float64
	// storm is the fault-injected congestion component; it composes with the
	// externally imposed level so a latency-storm fault and a noisy tenant do
	// not clobber each other's settings.
	storm float64
	// isolated holds, per node currently cut off from the rest of the
	// cluster, the number of active partition faults isolating it — a
	// refcount, so overlapping partitions that share a node compose and the
	// heal of one does not reconnect a node another still isolates. The map
	// is nil when no partition is active, so the reachability checks on the
	// operation hot path cost one nil comparison in the fault-free case.
	isolated map[NodeID]int
}

// NewNetwork creates a network model.
func NewNetwork(rng *rand.Rand) *Network {
	return &Network{rng: rng}
}

// SetCongestion sets the externally imposed congestion level in [0, 1].
func (n *Network) SetCongestion(level float64) {
	n.congestion = clamp(level, 0, 1)
}

// Congestion returns the externally imposed congestion level.
func (n *Network) Congestion() float64 { return n.congestion }

// SetReplicationLoad reports the current replication fan-out intensity in
// [0, 1]; it contributes additional (self-induced) congestion.
func (n *Network) SetReplicationLoad(level float64) {
	n.selfLoad = clamp(level, 0, 1)
}

// ReplicationLoad returns the replication-induced congestion component.
func (n *Network) ReplicationLoad() float64 { return n.selfLoad }

// SetFaultCongestion sets the latency-storm congestion component in [0, 1].
// It is driven by the fault injector and composes with the externally
// imposed level.
func (n *Network) SetFaultCongestion(level float64) {
	n.storm = clamp(level, 0, 1)
}

// FaultCongestion returns the latency-storm congestion component.
func (n *Network) FaultCongestion() float64 { return n.storm }

// EffectiveCongestion is the combined congestion level in [0, 1].
func (n *Network) EffectiveCongestion() float64 {
	return clamp(n.congestion+n.storm+float64(0.5*n.selfLoad), 0, 1)
}

// Isolate adds the given nodes to the isolated side of a partition. Messages
// between an isolated and a non-isolated node are undeliverable until Heal.
// Isolating the same node again (an overlapping partition fault) stacks: the
// node reconnects only when every isolating fault has healed.
func (n *Network) Isolate(ids []NodeID) {
	if len(ids) == 0 {
		return
	}
	if n.isolated == nil {
		n.isolated = make(map[NodeID]int, len(ids))
	}
	for _, id := range ids {
		n.isolated[id]++
	}
}

// Heal releases one isolation per given node. When the last isolation of the
// last node drains the partition is over and the reachability checks return
// to their fault-free fast path.
func (n *Network) Heal(ids []NodeID) {
	for _, id := range ids {
		if c, ok := n.isolated[id]; ok {
			if c <= 1 {
				delete(n.isolated, id)
			} else {
				n.isolated[id] = c - 1
			}
		}
	}
	if len(n.isolated) == 0 {
		n.isolated = nil
	}
}

// ClearPartition reconnects every isolated node regardless of how many
// faults isolate it.
func (n *Network) ClearPartition() { n.isolated = nil }

// Isolated reports whether the node is currently cut off from the rest of
// the cluster (and therefore from hint delivery and anti-entropy repair,
// which originate on the majority side).
func (n *Network) Isolated(id NodeID) bool {
	return n.isolated != nil && n.isolated[id] > 0
}

// IsolatedCount returns the number of currently isolated nodes.
func (n *Network) IsolatedCount() int { return len(n.isolated) }

// Reachable reports whether a node-to-node message between a and b can be
// delivered under the current partition. Nodes on the same side of the cut
// (or any pair when no partition is active) are mutually reachable.
func (n *Network) Reachable(a, b NodeID) bool {
	if n.isolated == nil {
		return true
	}
	return (n.isolated[a] > 0) == (n.isolated[b] > 0)
}

// PartitionActive reports whether any node is currently isolated.
func (n *Network) PartitionActive() bool { return n.isolated != nil }

func (n *Network) delay(base time.Duration) time.Duration {
	inflate := 1 + float64(congestionSensitivity*n.EffectiveCongestion())
	d := time.Duration(sim.LogNormal(n.rng, float64(base)*inflate, JitterSigma))
	if d <= 0 {
		d = base
	}
	return d
}

// NodeToNode returns a sampled one-way delay between two cluster nodes.
func (n *Network) NodeToNode() time.Duration { return n.delay(BaseLatency) }

// ClientToNode returns a sampled one-way delay between a client and a node.
func (n *Network) ClientToNode() time.Duration { return n.delay(ClientLatency) }
