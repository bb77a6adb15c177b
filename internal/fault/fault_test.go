package fault

import (
	"math"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

type rig struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	inj     *Injector
}

func newRig(t *testing.T, nodes int, seed int64) *rig {
	t.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(seed)
	cfg := cluster.DefaultConfig()
	cfg.InitialNodes = nodes
	cl := cluster.New(cfg, engine, src)
	inj, err := NewInjector(engine, cl, src.Stream("fault"), 10*time.Minute)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return &rig{engine: engine, cluster: cl, inj: inj}
}

func TestInjectorValidation(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(1)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	if _, err := NewInjector(nil, cl, src.Stream("fault"), time.Minute); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewInjector(engine, nil, src.Stream("fault"), time.Minute); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewInjector(engine, cl, nil, time.Minute); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewInjector(engine, cl, src.Stream("fault"), 0); err == nil {
		t.Error("zero run duration accepted")
	}
	inj, err := NewInjector(engine, cl, src.Stream("fault"), time.Minute)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := inj.Schedule(Plan{Events: []Event{{Kind: KindCrash, At: -time.Second}}}); err == nil {
		t.Error("negative strike time accepted")
	}
	if err := inj.Schedule(Plan{Events: []Event{{Kind: KindCrash, At: time.Second, Duration: -time.Second}}}); err == nil {
		t.Error("negative duration accepted")
	}
	// A strike before the engine's clock is an error, not a panic.
	if err := engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := inj.Schedule(Plan{Events: []Event{{Kind: KindCrash, At: 5 * time.Second}}}); err == nil {
		t.Error("strike before the engine's clock accepted")
	}
}

func TestCrashAndRestart(t *testing.T) {
	r := newRig(t, 3, 7)
	plan := Plan{Events: []Event{{Kind: KindCrash, At: 10 * time.Second, Duration: 20 * time.Second, Nodes: 1}}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(15 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.cluster.Size(); got != 2 {
		t.Fatalf("cluster size during crash = %d, want 2", got)
	}
	if err := r.engine.Run(40 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.cluster.Size(); got != 3 {
		t.Fatalf("cluster size after restart = %d, want 3", got)
	}
	tl := r.inj.Timeline()
	if len(tl) != 1 || tl[0].Kind != KindCrash || len(tl[0].Nodes) != 1 {
		t.Fatalf("timeline = %v, want one single-node crash window", tl)
	}
	if tl[0].Start != 10*time.Second || tl[0].End != 30*time.Second {
		t.Fatalf("crash window = %v..%v, want 10s..30s", tl[0].Start, tl[0].End)
	}
}

func TestPartitionIsolatesAndHeals(t *testing.T) {
	r := newRig(t, 4, 9)
	plan := Plan{Events: []Event{{Kind: KindPartition, At: 5 * time.Second, Duration: 10 * time.Second, Nodes: 2}}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(6 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	net := r.cluster.Network()
	if !net.PartitionActive() {
		t.Fatal("partition not active after strike")
	}
	tl := r.inj.Timeline()
	if len(tl) != 1 || len(tl[0].Nodes) != 2 {
		t.Fatalf("timeline = %v, want one two-node partition", tl)
	}
	iso, majority := tl[0].Nodes[0], cluster.NodeID(0)
	for _, n := range r.cluster.AvailableNodes() {
		if !net.Isolated(n.ID()) {
			majority = n.ID()
			break
		}
	}
	if majority == 0 {
		t.Fatal("no majority-side node found")
	}
	if net.Reachable(iso, majority) {
		t.Fatal("isolated node reachable across the cut")
	}
	if !net.Reachable(tl[0].Nodes[0], tl[0].Nodes[1]) {
		t.Fatal("nodes on the same side of the cut not mutually reachable")
	}
	// All nodes stay available to clients: partition is a network condition.
	if got := r.cluster.Size(); got != 4 {
		t.Fatalf("cluster size during partition = %d, want 4", got)
	}
	if err := r.engine.Run(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.PartitionActive() {
		t.Fatal("partition still active after heal")
	}
	if !net.Reachable(iso, majority) {
		t.Fatal("nodes not reachable after heal")
	}
}

func TestSlowNodeAndStorm(t *testing.T) {
	r := newRig(t, 3, 11)
	plan := Plan{Events: []Event{
		{Kind: KindSlow, At: time.Second, Duration: 5 * time.Second, Nodes: 1, Severity: 0.5},
		{Kind: KindStorm, At: 2 * time.Second, Duration: 4 * time.Second, Severity: 0.8},
	}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	slowed := 0
	for _, n := range r.cluster.AvailableNodes() {
		if n.FaultLoad() == 0.5 {
			slowed++
		}
	}
	if slowed != 1 {
		t.Fatalf("%d nodes slowed, want 1", slowed)
	}
	if got := r.cluster.Network().FaultCongestion(); got != 0.8 {
		t.Fatalf("storm congestion = %v, want 0.8", got)
	}
	if err := r.engine.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, n := range r.cluster.AvailableNodes() {
		if n.FaultLoad() != 0 {
			t.Fatalf("fault load %v persists after the fault ended", n.FaultLoad())
		}
	}
	if got := r.cluster.Network().FaultCongestion(); got != 0 {
		t.Fatalf("storm congestion %v persists after the storm ended", got)
	}
	if len(r.inj.Timeline()) != 2 {
		t.Fatalf("timeline has %d windows, want 2", len(r.inj.Timeline()))
	}
}

// TestOverflowDurationHoldsToRunEnd pins that an absurd-but-valid duration
// (now + Duration overflowing int64) neither panics the engine nor schedules
// a bogus undo: the fault simply holds for the rest of the run.
func TestOverflowDurationHoldsToRunEnd(t *testing.T) {
	r := newRig(t, 3, 19)
	plan := Plan{Events: []Event{
		{Kind: KindCrash, At: time.Second, Duration: time.Duration(math.MaxInt64), Nodes: 1},
	}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.cluster.Size(); got != 2 {
		t.Fatalf("cluster size = %d, want the crash to hold", got)
	}
	tl := r.inj.Timeline()
	if len(tl) != 1 || tl[0].End != 10*time.Minute {
		t.Fatalf("timeline = %v, want one window ending at the run end", tl)
	}
}

// TestNeverKillsLastNode pins the survival guarantee: however many nodes a
// crash or partition asks for, at least one node is left untouched.
func TestNeverKillsLastNode(t *testing.T) {
	r := newRig(t, 3, 13)
	plan := Plan{Events: []Event{{Kind: KindCrash, At: time.Second, Nodes: 99}}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.cluster.Size(); got != 1 {
		t.Fatalf("cluster size = %d, want exactly one survivor", got)
	}
}

// TestComposedPartitionsLeaveConnectedSurvivor pins that victim selection
// excludes already-isolated nodes: however many partition (or crash) events
// a plan composes, at least one connected serving node remains, so the
// cluster never degrades into a silent all-isolated repair freeze.
func TestComposedPartitionsLeaveConnectedSurvivor(t *testing.T) {
	r := newRig(t, 4, 17)
	plan := Plan{Events: []Event{
		{Kind: KindPartition, At: 10 * time.Second, Duration: 2 * time.Minute, Nodes: 2},
		{Kind: KindPartition, At: 20 * time.Second, Duration: 2 * time.Minute, Nodes: 2},
		{Kind: KindCrash, At: 30 * time.Second, Duration: time.Minute, Nodes: 4},
	}}
	if err := r.inj.Schedule(plan); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := r.engine.Run(40 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	net := r.cluster.Network()
	connected := 0
	for _, n := range r.cluster.AvailableNodes() {
		if !net.Isolated(n.ID()) {
			connected++
		}
	}
	if connected == 0 {
		t.Fatal("composed faults left no connected serving node")
	}
}

// TestDeterministicTargetSelection pins that the same seed picks the same
// victims.
func TestDeterministicTargetSelection(t *testing.T) {
	pick := func() []cluster.NodeID {
		r := newRig(t, 8, 21)
		plan := Plan{Events: []Event{{Kind: KindCrash, At: time.Second, Duration: time.Second, Nodes: 3}}}
		if err := r.inj.Schedule(plan); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := r.engine.Run(2 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return r.inj.Timeline()[0].Nodes
	}
	a, b := pick(), pick()
	if len(a) != 3 {
		t.Fatalf("picked %d nodes, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("target selection not deterministic: %v vs %v", a, b)
		}
	}
}
