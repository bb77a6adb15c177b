package cluster

import (
	"errors"
	"testing"
	"time"

	"autonosql/internal/sim"
)

type recordingListener struct {
	joined    []NodeID
	left      []NodeID
	failed    []NodeID
	recovered []NodeID
}

func (r *recordingListener) NodeJoined(id NodeID)    { r.joined = append(r.joined, id) }
func (r *recordingListener) NodeLeft(id NodeID)      { r.left = append(r.left, id) }
func (r *recordingListener) NodeFailed(id NodeID)    { r.failed = append(r.failed, id) }
func (r *recordingListener) NodeRecovered(id NodeID) { r.recovered = append(r.recovered, id) }

var _ MembershipListener = (*recordingListener)(nil)

func newTestCluster(t *testing.T, nodes int) (*Cluster, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.InitialNodes = nodes
	cfg.BootstrapTime = 10 * time.Second
	cfg.DecommissionTime = 5 * time.Second
	c := New(cfg, engine, sim.NewRandSource(1))
	return c, engine
}

func TestClusterInitialSize(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	if c.Size() != 3 || c.TotalNodes() != 3 {
		t.Fatalf("Size=%d TotalNodes=%d, want 3/3", c.Size(), c.TotalNodes())
	}
	if len(c.Nodes()) != 3 || len(c.AvailableNodes()) != 3 {
		t.Fatal("node listings inconsistent with size")
	}
	if _, ok := c.Node(c.Nodes()[0].ID()); !ok {
		t.Fatal("Node() lookup failed for existing node")
	}
	if _, ok := c.Node(999); ok {
		t.Fatal("Node() lookup succeeded for unknown node")
	}
}

func TestAddNodeLifecycle(t *testing.T) {
	c, engine := newTestCluster(t, 2)
	var listener recordingListener
	c.Subscribe(&listener)

	id, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if c.Size() != 2 {
		t.Fatalf("size should remain 2 while bootstrapping, got %d", c.Size())
	}
	n, _ := c.Node(id)
	if n.State() != NodeJoining {
		t.Fatalf("new node state = %v, want joining", n.State())
	}
	// Existing nodes should feel rebalance load while bootstrap is running.
	for _, existing := range c.AvailableNodes() {
		if existing.RebalanceLoad() <= 0 {
			t.Fatal("rebalance load not applied during bootstrap")
		}
	}
	if err := engine.Run(11 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("size after bootstrap = %d, want 3", c.Size())
	}
	if len(listener.joined) != 1 || listener.joined[0] != id {
		t.Fatalf("listener joined = %v, want [%v]", listener.joined, id)
	}
	for _, existing := range c.AvailableNodes() {
		if existing.RebalanceLoad() != 0 {
			t.Fatal("rebalance load not cleared after bootstrap")
		}
	}
}

func TestRemoveNodeLifecycle(t *testing.T) {
	c, engine := newTestCluster(t, 3)
	var listener recordingListener
	c.Subscribe(&listener)

	victim := c.AvailableNodes()[0].ID()
	if err := c.RemoveNode(victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if len(listener.left) != 1 || listener.left[0] != victim {
		t.Fatalf("listener left = %v, want [%v]", listener.left, victim)
	}
	n, _ := c.Node(victim)
	if n.State() != NodeDraining {
		t.Fatalf("state = %v, want draining", n.State())
	}
	if err := engine.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := c.Node(victim); ok {
		t.Fatal("node still present after decommission")
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2", c.Size())
	}
}

func TestRemoveNodeGuards(t *testing.T) {
	c, _ := newTestCluster(t, 1)
	only := c.AvailableNodes()[0].ID()
	if err := c.RemoveNode(only); !errors.Is(err, ErrMinNodes) {
		t.Fatalf("RemoveNode below MinNodes = %v, want ErrMinNodes", err)
	}
	if err := c.RemoveNode(999); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RemoveNode unknown = %v, want ErrUnknownNode", err)
	}
}

func TestAddNodeMaxGuard(t *testing.T) {
	engine := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.InitialNodes = 2
	cfg.MaxNodes = 2
	c := New(cfg, engine, sim.NewRandSource(1))
	if _, err := c.AddNode(); !errors.Is(err, ErrMaxNodes) {
		t.Fatalf("AddNode over MaxNodes = %v, want ErrMaxNodes", err)
	}
}

func TestRemoveNodeWrongState(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	id, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := c.RemoveNode(id); !errors.Is(err, ErrNodeNotReady) {
		t.Fatalf("RemoveNode on joining node = %v, want ErrNodeNotReady", err)
	}
}

func TestFailAndRecoverNode(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	var listener recordingListener
	c.Subscribe(&listener)
	id := c.AvailableNodes()[1].ID()
	if err := c.FailNode(id); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if c.Size() != 2 {
		t.Fatalf("size after failure = %d, want 2", c.Size())
	}
	if err := c.FailNode(id); err != nil {
		t.Fatalf("FailNode twice should be a no-op, got %v", err)
	}
	if err := c.RecoverNode(id); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("size after recovery = %d, want 3", c.Size())
	}
	if err := c.RecoverNode(id); err == nil {
		t.Fatal("RecoverNode on healthy node should fail")
	}
	if err := c.FailNode(999); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("FailNode unknown = %v, want ErrUnknownNode", err)
	}
	if err := c.RecoverNode(999); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RecoverNode unknown = %v, want ErrUnknownNode", err)
	}
	if len(listener.failed) != 1 || len(listener.recovered) != 1 {
		t.Fatalf("listener events failed=%v recovered=%v", listener.failed, listener.recovered)
	}
	if len(listener.left) != 0 || len(listener.joined) != 0 {
		t.Fatalf("failure should not be a membership change: left=%v joined=%v", listener.left, listener.joined)
	}
}

func TestNodeSecondsAccounting(t *testing.T) {
	c, engine := newTestCluster(t, 2)
	if err := engine.Run(100 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := c.NodeSeconds()
	if got < 199 || got > 201 {
		t.Fatalf("NodeSeconds = %v, want ~200", got)
	}
	if _, err := c.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := engine.Run(200 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 2 nodes for 100s, then 3 billable nodes (joining nodes are paid for)
	// for another 100s => about 200 + 300.
	got = c.NodeSeconds()
	if got < 490 || got > 510 {
		t.Fatalf("NodeSeconds = %v, want ~500", got)
	}
}

func TestSetBackgroundLoadAppliesToAllNodes(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	c.SetBackgroundLoad(0.3)
	for _, n := range c.Nodes() {
		if n.BackgroundLoad() != 0.3 {
			t.Fatalf("node %v background = %v, want 0.3", n.ID(), n.BackgroundLoad())
		}
	}
}

func TestUtilizationSampler(t *testing.T) {
	c, engine := newTestCluster(t, 2)
	sampler := NewUtilizationSampler(c)

	// Saturate node 1 for one second of virtual time.
	n := c.AvailableNodes()[0]
	for i := 0; i < 10000; i++ {
		n.Enqueue(0, ForegroundOp)
	}
	if err := engine.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mean, max := sampler.Sample(engine.Now())
	if max <= 0.5 {
		t.Fatalf("max utilization = %v, want > 0.5 for saturated node", max)
	}
	if mean <= 0 || mean > 1 {
		t.Fatalf("mean utilization = %v out of range", mean)
	}
	// A second sample over an idle period should drop towards zero.
	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, max2 := sampler.Sample(engine.Now())
	if max2 >= max {
		t.Fatalf("utilization did not decay: %v -> %v", max, max2)
	}
	// Degenerate sample with no elapsed time.
	m, mx := sampler.Sample(engine.Now())
	if m != 0 || mx != 0 {
		t.Fatal("zero-elapsed sample should return zeros")
	}
}

func TestTenantDriverQuietAndNoisy(t *testing.T) {
	engine := sim.NewEngine()
	c := New(DefaultConfig(), engine, sim.NewRandSource(5))
	quiet, err := NewTenantDriver(engine, c, QuietTenantProfile(), sim.NewRandSource(5).Stream("t"))
	if err != nil {
		t.Fatalf("NewTenantDriver: %v", err)
	}
	if err := engine.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if quiet.Current() != 0 {
		t.Fatalf("quiet profile applied load %v", quiet.Current())
	}
	quiet.Stop()

	engine2 := sim.NewEngine()
	c2 := New(DefaultConfig(), engine2, sim.NewRandSource(6))
	noisy, err := NewTenantDriver(engine2, c2, NoisyTenantProfile(), sim.NewRandSource(6).Stream("t"))
	if err != nil {
		t.Fatalf("NewTenantDriver: %v", err)
	}
	if err := engine2.Run(10 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if noisy.Current() <= 0 {
		t.Fatalf("noisy profile applied no load")
	}
	if c2.Nodes()[0].BackgroundLoad() <= 0 {
		t.Fatal("noisy profile did not reach nodes")
	}
	if c2.Network().Congestion() <= 0 {
		t.Fatal("noisy profile did not reach network")
	}
	noisy.Stop()
}

func TestTenantDriverDefaultInterval(t *testing.T) {
	engine := sim.NewEngine()
	c := New(DefaultConfig(), engine, sim.NewRandSource(5))
	p := NoisyTenantProfile()
	p.Interval = 0
	if _, err := NewTenantDriver(engine, c, p, sim.NewRandSource(1).Stream("x")); err != nil {
		t.Fatalf("NewTenantDriver with zero interval: %v", err)
	}
}

// TestPartitionIsolationRefcounts pins that overlapping partition faults
// compose: a node isolated by two faults reconnects only when both heal, and
// the heal of one fault never reconnects a node another still isolates.
func TestPartitionIsolationRefcounts(t *testing.T) {
	net := NewNetwork(sim.NewRandSource(1).Stream("net"))
	a, b, c := NodeID(1), NodeID(2), NodeID(3)

	if !net.Reachable(a, b) || net.PartitionActive() {
		t.Fatal("fresh network not fully connected")
	}
	net.Isolate([]NodeID{a})    // fault 1
	net.Isolate([]NodeID{a, b}) // fault 2 overlaps on a
	if net.Reachable(a, c) || net.Reachable(b, c) {
		t.Fatal("isolated nodes reachable from the majority")
	}
	if !net.Reachable(a, b) {
		t.Fatal("nodes on the isolated side not mutually reachable")
	}
	net.Heal([]NodeID{a, b}) // fault 2 ends
	if net.Reachable(a, c) {
		t.Fatal("healing one fault reconnected a node another fault still isolates")
	}
	if !net.Reachable(b, c) {
		t.Fatal("node isolated only by the healed fault did not reconnect")
	}
	net.Heal([]NodeID{a}) // fault 1 ends
	if !net.Reachable(a, c) || net.PartitionActive() {
		t.Fatal("network not fully connected after every fault healed")
	}
	if got := net.IsolatedCount(); got != 0 {
		t.Fatalf("IsolatedCount = %d after full heal", got)
	}

	net.Isolate([]NodeID{a, b})
	net.ClearPartition()
	if net.PartitionActive() || net.IsolatedCount() != 0 {
		t.Fatal("ClearPartition left isolation behind")
	}
}
