package cluster

import (
	"testing"
	"time"

	"autonosql/internal/sim"
)

func newTestNode(t *testing.T) (*Node, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(1)
	n := NewNode(1, DefaultNodeOpsPerSec, engine, src.Stream("node"))
	return n, engine
}

func TestNodeStateString(t *testing.T) {
	cases := map[NodeState]string{
		NodeJoining:   "joining",
		NodeUp:        "up",
		NodeDraining:  "draining",
		NodeDown:      "down",
		NodeState(42): "state(42)",
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", state, got, want)
		}
	}
	if got := NodeID(3).String(); got != "node-3" {
		t.Errorf("NodeID.String() = %q", got)
	}
}

func TestNodeDefaults(t *testing.T) {
	n := NewNode(1, DefaultNodeOpsPerSec, sim.NewEngine(), sim.NewRandSource(1).Stream("n"))
	if n.Capacity() != 5000 || n.service != 200*time.Microsecond || n.apply != 150*time.Microsecond {
		t.Fatalf("capacity=%v service=%v apply=%v, want 5000 ops/s, 200µs, 150µs", n.Capacity(), n.service, n.apply)
	}
}

func TestNodeEnqueueIdle(t *testing.T) {
	n, _ := newTestNode(t)
	delay, ok := n.Enqueue(0, ForegroundOp)
	if !ok {
		t.Fatal("Enqueue rejected on healthy node")
	}
	if delay <= 0 {
		t.Fatalf("delay = %v, want positive", delay)
	}
	if delay > 50*time.Millisecond {
		t.Fatalf("idle-node delay %v implausibly large", delay)
	}
	if n.OpsServed() != 1 {
		t.Fatalf("OpsServed = %d, want 1", n.OpsServed())
	}
}

func TestNodeQueueingIncreasesDelay(t *testing.T) {
	n, _ := newTestNode(t)
	// Saturate the node: submit far more work at t=0 than one executor can
	// finish instantly; later submissions must wait longer.
	first, _ := n.Enqueue(0, ForegroundOp)
	var last time.Duration
	for i := 0; i < 500; i++ {
		last, _ = n.Enqueue(0, ForegroundOp)
	}
	if last <= first {
		t.Fatalf("queued delay %v not larger than first %v", last, first)
	}
	if n.QueueDelay(0) <= 0 {
		t.Fatal("QueueDelay should be positive after backlog")
	}
	if n.QueueDelay(n.busyUntil+time.Second) != 0 {
		t.Fatal("QueueDelay after drain should be zero")
	}
}

func TestNodeBackgroundLoadSlowsService(t *testing.T) {
	measure := func(bg float64) time.Duration {
		engine := sim.NewEngine()
		n := NewNode(1, DefaultNodeOpsPerSec, engine, sim.NewRandSource(7).Stream("x"))
		n.SetBackgroundLoad(bg)
		var total time.Duration
		for i := 0; i < 200; i++ {
			d, _ := n.Enqueue(n.busyUntil, ForegroundOp) // submit back-to-back
			total += d
		}
		return total
	}
	quiet := measure(0)
	noisy := measure(0.8)
	if noisy < quiet*2 {
		t.Fatalf("background load did not slow node enough: quiet=%v noisy=%v", quiet, noisy)
	}
}

func TestNodeRejectsWhenDown(t *testing.T) {
	n, _ := newTestNode(t)
	n.SetState(NodeDown)
	if _, ok := n.Enqueue(0, ForegroundOp); ok {
		t.Fatal("down node accepted work")
	}
	if n.OpsRejected() != 1 {
		t.Fatalf("OpsRejected = %d, want 1", n.OpsRejected())
	}
	n.SetState(NodeJoining)
	if _, ok := n.Enqueue(0, ForegroundOp); ok {
		t.Fatal("joining node accepted work")
	}
	n.SetState(NodeDraining)
	if _, ok := n.Enqueue(0, ForegroundOp); !ok {
		t.Fatal("draining node should still accept work")
	}
}

func TestNodeLoadClamping(t *testing.T) {
	n, _ := newTestNode(t)
	n.SetBackgroundLoad(5)
	if n.BackgroundLoad() > 0.95 {
		t.Fatalf("background load not clamped: %v", n.BackgroundLoad())
	}
	n.SetBackgroundLoad(-1)
	if n.BackgroundLoad() != 0 {
		t.Fatalf("negative background load not clamped: %v", n.BackgroundLoad())
	}
	n.SetRebalanceLoad(2)
	if n.RebalanceLoad() > 0.9 {
		t.Fatalf("rebalance load not clamped: %v", n.RebalanceLoad())
	}
}

func TestNodeReplicationApplyCheaper(t *testing.T) {
	engine := sim.NewEngine()
	// Both nodes draw the same service-time noise, so every apply is cheaper
	// than the foreground op it is paired with.
	fg := NewNode(1, DefaultNodeOpsPerSec, engine, sim.NewRandSource(3).Stream("a"))
	bg := NewNode(2, DefaultNodeOpsPerSec, engine, sim.NewRandSource(3).Stream("a"))
	var fgTotal, bgTotal time.Duration
	for i := 0; i < 100; i++ {
		d1, _ := fg.Enqueue(fg.busyUntil, ForegroundOp)
		d2, _ := bg.Enqueue(bg.busyUntil, ReplicationApply)
		fgTotal += d1
		bgTotal += d2
	}
	if bgTotal >= fgTotal {
		t.Fatalf("replication apply (%v) should be cheaper than foreground (%v)", bgTotal, fgTotal)
	}
}

func TestNetworkDelays(t *testing.T) {
	rng := sim.NewRandSource(1).Stream("net")
	n := NewNetwork(rng)
	for i := 0; i < 100; i++ {
		if d := n.NodeToNode(); d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("NodeToNode delay %v out of plausible range", d)
		}
		if d := n.ClientToNode(); d <= 0 {
			t.Fatalf("ClientToNode delay %v should be positive", d)
		}
	}
}

func TestNetworkCongestionInflatesDelay(t *testing.T) {
	sample := func(congestion float64) time.Duration {
		rng := sim.NewRandSource(9).Stream("net")
		n := NewNetwork(rng)
		n.SetCongestion(congestion)
		var total time.Duration
		for i := 0; i < 500; i++ {
			total += n.NodeToNode()
		}
		return total
	}
	calm := sample(0)
	congested := sample(0.8)
	if congested < calm*3 {
		t.Fatalf("congestion did not inflate latency enough: calm=%v congested=%v", calm, congested)
	}
}

func TestNetworkReplicationSelfLoad(t *testing.T) {
	n := NewNetwork(sim.NewRandSource(2).Stream("n"))
	n.SetCongestion(0.4)
	n.SetReplicationLoad(0.6)
	if got := n.EffectiveCongestion(); got <= 0.4 {
		t.Fatalf("EffectiveCongestion = %v, want > 0.4", got)
	}
	if n.Congestion() != 0.4 || n.ReplicationLoad() != 0.6 {
		t.Fatal("accessors returned wrong stored values")
	}
	n.SetCongestion(3)
	if n.Congestion() != 1 {
		t.Fatalf("congestion not clamped: %v", n.Congestion())
	}
	n.SetCongestion(1)
	n.SetReplicationLoad(1)
	if n.EffectiveCongestion() != 1 {
		t.Fatalf("effective congestion not clamped: %v", n.EffectiveCongestion())
	}
}
