// Package cluster models the infrastructure a NoSQL database runs on: nodes
// with finite processing capacity and queueing behaviour, a network with
// latency, jitter and congestion, multi-tenant background load ("noisy
// neighbours"), and cluster membership with realistic provisioning and
// decommissioning delays.
//
// The paper argues that the inconsistency window depends not only on the
// database technology and its configuration but on dynamic parameters such as
// the load on the database and on the platform it runs on. This package is
// the substrate that makes those dynamics visible to the store and to the
// autonomous controller built on top of it.
package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"autonosql/internal/metrics"
	"autonosql/internal/sim"
)

// NodeID identifies a node within a cluster.
type NodeID int

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("node-%d", int(id)) }

// NodeState is the lifecycle state of a node.
type NodeState int

// Node lifecycle states.
const (
	// NodeJoining is a node that has been provisioned but is still
	// bootstrapping (streaming data from its peers). It cannot yet serve
	// requests.
	NodeJoining NodeState = iota + 1
	// NodeUp is a healthy node serving requests.
	NodeUp
	// NodeDraining is a node being decommissioned; it still serves requests
	// while handing off its ranges.
	NodeDraining
	// NodeDown is a failed or removed node.
	NodeDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeJoining:
		return "joining"
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The node cost model. A node is a serial executor, so its median service
// time is the inverse of its capacity; the defaults model a modest cloud VM
// running a storage engine.
const (
	// DefaultNodeOpsPerSec is the sustainable throughput of the default node:
	// a 0.2 ms median service time.
	DefaultNodeOpsPerSec = 5000
	// ServiceTimeSigma is the log-normal shape parameter for service-time
	// variability.
	ServiceTimeSigma = 0.35
	// ReplicationApplyShare is the cost of applying a replicated mutation in
	// the background relative to a coordinated operation.
	ReplicationApplyShare = 0.75
	// ReplicationQueuePenalty models the lower scheduling priority of
	// background replication: a replicated mutation waits this many times
	// longer than the foreground queue delay before it is applied.
	ReplicationQueuePenalty = 4
)

// serviceTime samples every node's log-normal service times. It is built
// once per process, at package initialisation, so no scenario pays for it.
var serviceTime = sim.NewLogNormalTable(ServiceTimeSigma)

// Node is a simulated database host. Work submitted to a node is serviced by
// a single logical executor: each operation waits for the work queued before
// it and then occupies the executor for a load-dependent service time. This
// produces the characteristic latency blow-up as utilisation approaches one,
// which in turn widens the inconsistency window under load.
type Node struct {
	id     NodeID
	engine *sim.Engine
	rng    *rand.Rand

	// capacity is the sustainable operation throughput; arrivals beyond it
	// queue and inflate latency. service and apply are the median times of a
	// coordinated operation and of a background replication apply.
	capacity float64
	service  time.Duration
	apply    time.Duration

	state     NodeState
	busyUntil time.Duration
	// background is the fraction of the node's capacity consumed by
	// co-located tenants (the noisy-neighbour effect).
	background float64
	// rebalance is extra load from ongoing bootstrap/decommission streaming.
	rebalance float64
	// fault is capacity lost to an injected slow-node fault (a degraded disk,
	// a stolen CPU). It composes with the tenant and rebalance components so
	// the fault injector never clobbers what the tenant driver set.
	fault float64

	// class tags the node as dedicated to one SLA class under a placement
	// policy; empty means the node serves the shared pool. The store's
	// replica-selection path and the controller's scale-in policy consult it.
	class string

	busyAccum   time.Duration
	opsServed   metrics.Counter
	opsRejected metrics.Counter

	// notify, when set by the owning cluster, is invoked on every state
	// transition so derived views (the available-node cache) can invalidate.
	notify func()
}

// NewNode constructs a node in the NodeUp state that sustains opsPerSec
// operations per second.
func NewNode(id NodeID, opsPerSec float64, engine *sim.Engine, rng *rand.Rand) *Node {
	service := time.Duration(float64(time.Second) / opsPerSec)
	return &Node{
		id:       id,
		engine:   engine,
		rng:      rng,
		capacity: opsPerSec,
		service:  service,
		apply:    time.Duration(float64(service) * ReplicationApplyShare),
		state:    NodeUp,
	}
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// State returns the node lifecycle state.
func (n *Node) State() NodeState { return n.state }

// SetState transitions the node lifecycle state.
func (n *Node) SetState(s NodeState) {
	n.state = s
	if n.notify != nil {
		n.notify()
	}
}

// Capacity returns the node's sustainable throughput in operations per
// second.
func (n *Node) Capacity() float64 { return n.capacity }

// SetClass tags the node as dedicated to one SLA class ("" returns it to the
// shared pool).
func (n *Node) SetClass(class string) { n.class = class }

// Class returns the SLA class the node is dedicated to, or "".
func (n *Node) Class() string { return n.class }

// Available reports whether the node can serve requests.
func (n *Node) Available() bool {
	return n.state == NodeUp || n.state == NodeDraining
}

// SetBackgroundLoad sets the fraction [0, 0.95] of capacity consumed by
// other tenants sharing the underlying hardware.
func (n *Node) SetBackgroundLoad(f float64) {
	n.background = clamp(f, 0, 0.95)
}

// BackgroundLoad returns the current noisy-neighbour load fraction.
func (n *Node) BackgroundLoad() float64 { return n.background }

// SetRebalanceLoad sets the fraction of capacity consumed by bootstrap or
// decommission streaming.
func (n *Node) SetRebalanceLoad(f float64) {
	n.rebalance = clamp(f, 0, 0.9)
}

// RebalanceLoad returns the current rebalance load fraction.
func (n *Node) RebalanceLoad() float64 { return n.rebalance }

// SetFaultLoad sets the fraction [0, 0.95] of capacity lost to an injected
// slow-node fault.
func (n *Node) SetFaultLoad(f float64) {
	n.fault = clamp(f, 0, 0.95)
}

// FaultLoad returns the current slow-node fault load fraction.
func (n *Node) FaultLoad() float64 { return n.fault }

// contention is the total fraction of capacity unavailable to foreground
// work.
func (n *Node) contention() float64 {
	return clamp(n.background+n.rebalance+n.fault, 0, 0.97)
}

// WorkKind distinguishes coordinated foreground operations from background
// replication applies, which are cheaper.
type WorkKind int

// Work kinds.
const (
	// ForegroundOp is a client-facing read or write executed by the node.
	ForegroundOp WorkKind = iota + 1
	// ReplicationApply is a background application of a replicated mutation.
	ReplicationApply
)

// Enqueue submits one unit of work at virtual time now and returns the delay
// until the work completes (queue wait plus service time). Unavailable nodes
// reject work by returning ok=false.
func (n *Node) Enqueue(now time.Duration, kind WorkKind) (delay time.Duration, ok bool) {
	if !n.Available() {
		n.opsRejected.Inc()
		return 0, false
	}
	base := n.service
	if kind == ReplicationApply {
		base = n.apply
	}
	// Contention from co-tenants and rebalancing effectively slows the
	// executor down: the same work occupies it for longer.
	slowdown := 1.0 / (1.0 - n.contention())
	service := time.Duration(serviceTime.Draw(n.rng, float64(base)*slowdown))
	if service <= 0 {
		service = base
	}

	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	queueWait := start - now
	n.busyUntil = start + service
	n.busyAccum += service
	n.opsServed.Inc()

	completion := n.busyUntil - now
	if kind == ReplicationApply {
		// Background mutations sit behind the foreground backlog: the longer
		// the queue, the further their application slips. This is the
		// mechanism that makes the inconsistency window grow sharply as the
		// node approaches saturation.
		completion += time.Duration(float64(queueWait) * (ReplicationQueuePenalty - 1))
	}
	return completion, true
}

// QueueDelay returns how long newly submitted work would wait before being
// serviced at virtual time now.
func (n *Node) QueueDelay(now time.Duration) time.Duration {
	if n.busyUntil <= now {
		return 0
	}
	return n.busyUntil - now
}

// BusyAccum returns the cumulative busy time of the node's executor. Callers
// can diff successive readings to derive utilisation over an interval.
func (n *Node) BusyAccum() time.Duration { return n.busyAccum }

// OpsServed returns the number of accepted work items.
func (n *Node) OpsServed() uint64 { return n.opsServed.Value() }

// OpsRejected returns the number of rejected work items.
func (n *Node) OpsRejected() uint64 { return n.opsRejected.Value() }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
