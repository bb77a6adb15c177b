package cluster

import (
	"errors"
	"fmt"
	"time"

	"autonosql/internal/sim"
)

// Config describes a cluster: its initial size, node capacity and
// provisioning behaviour. The network profile and the node cost model are
// the package's constants.
type Config struct {
	// InitialNodes is the number of nodes present at simulation start.
	InitialNodes int
	// NodeOpsPerSec is the sustainable throughput of each node.
	NodeOpsPerSec float64
	// BootstrapTime is how long a newly provisioned node takes before it can
	// serve traffic (VM start + data streaming).
	BootstrapTime time.Duration
	// DecommissionTime is how long a node drains before it is removed.
	DecommissionTime time.Duration
	// MinNodes and MaxNodes bound the cluster size reachable through
	// AddNode/RemoveNode (they model a provider quota).
	MinNodes int
	MaxNodes int
}

// rebalanceLoad is the extra load fraction imposed on existing nodes while a
// node bootstraps or drains.
const rebalanceLoad = 0.15

// DefaultConfig returns the cluster profile used by the experiments:
// three nodes, 60 s bootstrap, 30 s decommission.
func DefaultConfig() Config {
	return Config{
		InitialNodes:     3,
		NodeOpsPerSec:    DefaultNodeOpsPerSec,
		BootstrapTime:    60 * time.Second,
		DecommissionTime: 30 * time.Second,
		MinNodes:         1,
		MaxNodes:         32,
	}
}

// Errors returned by cluster membership operations.
var (
	ErrMaxNodes     = errors.New("cluster: maximum node count reached")
	ErrMinNodes     = errors.New("cluster: minimum node count reached")
	ErrUnknownNode  = errors.New("cluster: unknown node")
	ErrNodeNotReady = errors.New("cluster: node is not in a removable state")
)

// MembershipListener is notified about changes in cluster membership and
// node health. Joins and departures are permanent membership changes (the
// store moves replica ownership); failures and recoveries are transient (the
// node keeps its ring position but is temporarily unreachable).
type MembershipListener interface {
	NodeJoined(id NodeID)
	NodeLeft(id NodeID)
	NodeFailed(id NodeID)
	NodeRecovered(id NodeID)
}

// Cluster owns the set of nodes, the network, and the provisioning
// lifecycle. All mutation happens on the simulation's event loop.
type Cluster struct {
	cfg     Config
	engine  *sim.Engine
	network *Network
	rnd     *sim.RandSource

	// nodes is indexed by id: a new node's id is the next index (from 1),
	// so the op path finds a node without hashing and a walk visits them in
	// ascending id order. A removed node's entry is nil; count is the number
	// of nodes present.
	nodes     []*Node
	count     int
	listeners []MembershipListener

	// availCache is the memoised result of AvailableNodes. The store asks for
	// the available-node list on every operation to pick a coordinator, so
	// rebuilding (and re-sorting) it per call dominated the coordinator path;
	// membership and node-state changes invalidate the cache instead.
	availCache []*Node
	availDirty bool

	// pendingJoins tracks nodes currently bootstrapping so that rebalance
	// load can be removed once they finish.
	pendingJoins int
	// nodeSeconds accumulates (node count × time) for cost accounting.
	nodeSeconds     float64
	lastAccountedAt time.Duration
}

// New creates a cluster with cfg.InitialNodes nodes already up. It takes a
// complete config; start from DefaultConfig.
func New(cfg Config, engine *sim.Engine, rnd *sim.RandSource) *Cluster {
	c := &Cluster{
		cfg:        cfg,
		engine:     engine,
		network:    NewNetwork(rnd.Stream("network")),
		rnd:        rnd,
		nodes:      make([]*Node, 1), // no node has id 0
		availDirty: true,
	}
	for i := 0; i < cfg.InitialNodes; i++ {
		c.addNode()
	}
	return c
}

// addNode creates a node with the next id, wires its state-change
// notification to the availability cache and marks the cache stale.
func (c *Cluster) addNode() *Node {
	id := NodeID(len(c.nodes))
	n := NewNode(id, c.cfg.NodeOpsPerSec, c.engine, c.rnd.Stream(fmt.Sprintf("node-%d", id)))
	n.notify = c.invalidateAvail
	c.availDirty = true
	c.nodes = append(c.nodes, n)
	c.count++
	return n
}

func (c *Cluster) invalidateAvail() { c.availDirty = true }

// Network returns the cluster's network model.
func (c *Cluster) Network() *Network { return c.network }

// Subscribe registers a membership listener.
func (c *Cluster) Subscribe(l MembershipListener) {
	if l != nil {
		c.listeners = append(c.listeners, l)
	}
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) (*Node, bool) {
	if uint(id) < uint(len(c.nodes)) {
		if n := c.nodes[id]; n != nil {
			return n, true
		}
	}
	return nil, false
}

// Nodes returns all nodes (any state) ordered by ID.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, c.count)
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// AvailableNodes returns the nodes currently able to serve requests, ordered
// by ID. The result is memoised until the next membership or node-state
// change; callers must treat it as read-only. A fresh slice is built on every
// rebuild, so a list obtained before a change remains a valid snapshot.
func (c *Cluster) AvailableNodes() []*Node {
	if c.availDirty {
		out := make([]*Node, 0, c.count)
		for _, n := range c.nodes {
			if n != nil && n.Available() {
				out = append(out, n)
			}
		}
		c.availCache = out
		c.availDirty = false
	}
	return c.availCache
}

// Size returns the number of nodes that are up or draining.
func (c *Cluster) Size() int { return len(c.AvailableNodes()) }

// TotalNodes returns the number of nodes in any state (including joining).
func (c *Cluster) TotalNodes() int { return c.count }

// AddNode provisions a new node. The node spends BootstrapTime in the
// NodeJoining state (imposing rebalance load on existing nodes) before it
// becomes available and listeners are notified.
func (c *Cluster) AddNode() (NodeID, error) {
	if c.count >= c.cfg.MaxNodes {
		return 0, ErrMaxNodes
	}
	c.accountNodeSeconds()
	node := c.addNode()
	id := node.ID()
	node.SetState(NodeJoining)
	c.pendingJoins++
	c.applyRebalanceLoad()

	c.engine.After(c.cfg.BootstrapTime, func(time.Duration) {
		// The node may have been failed or removed while bootstrapping.
		n, ok := c.Node(id)
		if !ok || n.State() != NodeJoining {
			c.pendingJoins--
			c.applyRebalanceLoad()
			return
		}
		n.SetState(NodeUp)
		c.pendingJoins--
		c.applyRebalanceLoad()
		c.accountNodeSeconds()
		for _, l := range c.listeners {
			l.NodeJoined(id)
		}
	})
	return id, nil
}

// RemoveNode drains and then removes an available node. Listeners are
// notified immediately (so replicas move off the node) and the node is
// deleted after DecommissionTime.
func (c *Cluster) RemoveNode(id NodeID) error {
	n, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	if c.Size() <= c.cfg.MinNodes {
		return ErrMinNodes
	}
	if n.State() != NodeUp {
		return fmt.Errorf("%w: %v is %v", ErrNodeNotReady, id, n.State())
	}
	c.accountNodeSeconds()
	n.SetState(NodeDraining)
	c.pendingJoins++ // draining also imposes streaming load
	c.applyRebalanceLoad()
	for _, l := range c.listeners {
		l.NodeLeft(id)
	}
	c.engine.After(c.cfg.DecommissionTime, func(time.Duration) {
		c.accountNodeSeconds()
		if cur, ok := c.Node(id); ok && cur.State() == NodeDraining {
			cur.SetState(NodeDown)
			c.nodes[id] = nil
			c.count--
			c.invalidateAvail()
		}
		c.pendingJoins--
		c.applyRebalanceLoad()
	})
	return nil
}

// FailNode marks a node as down immediately (crash failure) and notifies
// listeners of the transient failure. The node keeps its ring position and is
// still paid for until it is repaired or decommissioned.
func (c *Cluster) FailNode(id NodeID) error {
	n, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	if n.State() == NodeDown {
		return nil
	}
	n.SetState(NodeDown)
	for _, l := range c.listeners {
		l.NodeFailed(id)
	}
	return nil
}

// RecoverNode brings a previously failed node back up and notifies
// listeners of the recovery.
func (c *Cluster) RecoverNode(id NodeID) error {
	n, ok := c.Node(id)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	if n.State() != NodeDown {
		return fmt.Errorf("%w: %v is %v", ErrNodeNotReady, id, n.State())
	}
	n.SetState(NodeUp)
	for _, l := range c.listeners {
		l.NodeRecovered(id)
	}
	return nil
}

// applyRebalanceLoad recomputes the rebalance load imposed on available
// nodes from the number of in-flight joins/drains.
func (c *Cluster) applyRebalanceLoad() {
	load := clamp(float64(c.pendingJoins)*rebalanceLoad, 0, 0.6)
	for _, n := range c.nodes {
		if n != nil && n.Available() {
			n.SetRebalanceLoad(load)
		}
	}
}

// SetBackgroundLoad applies a noisy-neighbour load fraction to every node.
func (c *Cluster) SetBackgroundLoad(f float64) {
	for _, n := range c.nodes {
		if n != nil {
			n.SetBackgroundLoad(f)
		}
	}
}

// accountNodeSeconds folds elapsed (node × seconds) into the running total.
// It must be called before any change in the billable node count.
func (c *Cluster) accountNodeSeconds() {
	now := c.engine.Now()
	if now > c.lastAccountedAt {
		elapsed := (now - c.lastAccountedAt).Seconds()
		c.nodeSeconds += float64(elapsed * float64(c.billableNodes()))
		c.lastAccountedAt = now
	}
}

func (c *Cluster) billableNodes() int {
	count := 0
	for _, n := range c.nodes {
		if n != nil && n.State() != NodeDown {
			count++
		}
	}
	return count
}

// NodeSeconds returns the accumulated node-seconds consumed so far,
// including time elapsed since the last membership change.
func (c *Cluster) NodeSeconds() float64 {
	now := c.engine.Now()
	extra := 0.0
	if now > c.lastAccountedAt {
		extra = (now - c.lastAccountedAt).Seconds() * float64(c.billableNodes())
	}
	return c.nodeSeconds + extra
}

// UtilizationSampler tracks per-node utilisation over sampling intervals by
// diffing cumulative busy time.
type UtilizationSampler struct {
	cluster  *Cluster
	lastBusy map[NodeID]time.Duration
	lastAt   time.Duration
}

// NewUtilizationSampler creates a sampler bound to a cluster.
func NewUtilizationSampler(c *Cluster) *UtilizationSampler {
	return &UtilizationSampler{cluster: c, lastBusy: make(map[NodeID]time.Duration)}
}

// Sample returns the mean and maximum utilisation across available nodes
// since the previous call. Utilisation is busy-time divided by wall time and
// clamped to [0, 1].
func (u *UtilizationSampler) Sample(now time.Duration) (mean, max float64) {
	elapsed := now - u.lastAt
	nodes := u.cluster.AvailableNodes()
	if elapsed <= 0 || len(nodes) == 0 {
		u.lastAt = now
		return 0, 0
	}
	sum := 0.0
	for _, n := range nodes {
		busy := n.BusyAccum()
		prev := u.lastBusy[n.ID()]
		util := clamp(float64(busy-prev)/float64(elapsed), 0, 1)
		sum += util
		if util > max {
			max = util
		}
		u.lastBusy[n.ID()] = busy
	}
	u.lastAt = now
	return sum / float64(len(nodes)), max
}
