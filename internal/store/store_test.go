package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

// harness wires an engine, a cluster and a store together for tests.
type harness struct {
	t       *testing.T
	engine  *sim.Engine
	cluster *cluster.Cluster
	store   *Store
}

func newHarness(t *testing.T, clusterCfg cluster.Config, storeCfg Config, seed int64) *harness {
	t.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(seed)
	cl := cluster.New(clusterCfg, engine, src)
	st, err := New(storeCfg, engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return &harness{t: t, engine: engine, cluster: cl, store: st}
}

func defaultHarness(t *testing.T) *harness {
	return newHarness(t, cluster.DefaultConfig(), DefaultConfig(), 1)
}

// runUntil steps the engine until the predicate is satisfied or maxEvents
// events have been processed.
func (h *harness) runUntil(done func() bool, maxEvents int) {
	h.t.Helper()
	for i := 0; i < maxEvents; i++ {
		if done() {
			return
		}
		if !h.engine.Step() {
			break
		}
	}
	if !done() {
		h.t.Fatal("operation did not complete")
	}
}

func (h *harness) writeSync(key Key) Result {
	h.t.Helper()
	var res Result
	fired := false
	h.store.Write(key, func(r Result) { res = r; fired = true })
	h.runUntil(func() bool { return fired }, 100000)
	return res
}

func (h *harness) readSync(key Key) Result {
	h.t.Helper()
	var res Result
	fired := false
	h.store.Read(key, func(r Result) { res = r; fired = true })
	h.runUntil(func() bool { return fired }, 100000)
	return res
}

// generateLoad schedules writeRate writes/s and readRate reads/s of uniform
// random keys for the given duration, then runs the engine to the end of
// that period.
func (h *harness) generateLoad(writeRate, readRate float64, dur time.Duration, keys int) {
	h.t.Helper()
	rng := sim.NewRandSource(77).Stream("load")
	schedule := func(rate float64, issue func(Key)) {
		if rate <= 0 {
			return
		}
		var next func(now time.Duration)
		next = func(time.Duration) {
			k := Key(fmt.Sprintf("key-%d", rng.Intn(keys)))
			issue(k)
			gap := time.Duration(sim.Exponential(rng, float64(time.Second)/rate))
			if gap <= 0 {
				gap = time.Microsecond
			}
			if h.engine.Now()+gap < dur {
				h.engine.After(gap, next)
			}
		}
		h.engine.After(time.Millisecond, next)
	}
	schedule(writeRate, func(k Key) { h.store.Write(k, nil) })
	schedule(readRate, func(k Key) { h.store.Read(k, nil) })
	if err := h.engine.Run(dur + 2*time.Second); err != nil {
		h.t.Fatalf("Run: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil, nil, nil); err == nil {
		t.Fatal("New with nil dependencies should fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := defaultHarness(t)
	w := h.writeSync("user:1")
	if w.Err != nil {
		t.Fatalf("write error: %v", w.Err)
	}
	if w.Kind != OpWrite || w.Version == 0 || w.Latency <= 0 {
		t.Fatalf("unexpected write result %+v", w)
	}
	r := h.readSync("user:1")
	if r.Err != nil {
		t.Fatalf("read error: %v", r.Err)
	}
	if r.Version < w.Version {
		t.Fatalf("read version %d older than written %d", r.Version, w.Version)
	}
	stats := h.store.Stats()
	if stats.Writes != 1 || stats.Reads != 1 {
		t.Fatalf("stats = %+v, want 1 write / 1 read", stats)
	}
	if stats.WriteLatency.Count != 1 || stats.ReadLatency.Count != 1 {
		t.Fatal("latency histograms not populated")
	}
	if h.store.KeyCount() != 1 {
		t.Fatalf("KeyCount = %d, want 1", h.store.KeyCount())
	}
}

func TestReadUnknownKeyNotStale(t *testing.T) {
	h := defaultHarness(t)
	r := h.readSync("missing")
	if r.Err != nil {
		t.Fatalf("read error: %v", r.Err)
	}
	if r.Version != 0 || r.Stale {
		t.Fatalf("read of unknown key = %+v, want version 0, not stale", r)
	}
}

func TestWriteAllThenReadOneNeverStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteConsistency = All
	cfg.ReadConsistency = One
	h := newHarness(t, cluster.DefaultConfig(), cfg, 2)
	for i := 0; i < 50; i++ {
		k := Key(fmt.Sprintf("k-%d", i))
		if w := h.writeSync(k); w.Err != nil {
			t.Fatalf("write error: %v", w.Err)
		}
		r := h.readSync(k)
		if r.Err != nil {
			t.Fatalf("read error: %v", r.Err)
		}
		if r.Stale {
			t.Fatalf("stale read after CL=ALL write on key %s", k)
		}
	}
	if h.store.Stats().StaleReads != 0 {
		t.Fatal("stale reads recorded despite write CL=ALL")
	}
}

func TestQuorumQuorumReadYourWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteConsistency = Quorum
	cfg.ReadConsistency = Quorum
	cfg.ReadRepair = false
	cfg.AntiEntropyInterval = 0
	h := newHarness(t, cluster.DefaultConfig(), cfg, 3)
	for i := 0; i < 100; i++ {
		k := Key(fmt.Sprintf("q-%d", i%10))
		w := h.writeSync(k)
		if w.Err != nil {
			t.Fatalf("write error: %v", w.Err)
		}
		r := h.readSync(k)
		if r.Err != nil {
			t.Fatalf("read error: %v", r.Err)
		}
		if r.Version < w.Version {
			t.Fatalf("quorum read returned %d after quorum write %d", r.Version, w.Version)
		}
	}
	if h.store.Stats().StaleReads != 0 {
		t.Fatalf("stale reads = %d with overlapping quorums, want 0", h.store.Stats().StaleReads)
	}
}

func TestWindowNearZeroWhenIdle(t *testing.T) {
	h := defaultHarness(t)
	for i := 0; i < 50; i++ {
		h.writeSync(Key(fmt.Sprintf("idle-%d", i)))
	}
	p95 := h.store.Stats().Window.P95
	if p95 > 0.005 {
		t.Fatalf("idle p95 window = %v s, want < 5ms", p95)
	}
}

func TestWindowGrowsWithLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	measure := func(rate float64) float64 {
		cfg := DefaultConfig()
		cfg.ReadRepair = false
		cfg.AntiEntropyInterval = 0
		h := newHarness(t, cluster.DefaultConfig(), cfg, 5)
		h.generateLoad(rate, rate/4, 10*time.Second, 500)
		return h.store.Stats().Window.P95
	}
	low := measure(300)
	high := measure(4200)
	if high <= low || high <= 0 {
		t.Fatalf("p95 window did not grow with load: low=%.6f high=%.6f", low, high)
	}
}

func TestWindowShrinksWithStricterWriteCL(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	measure := func(cl ConsistencyLevel) float64 {
		cfg := DefaultConfig()
		cfg.WriteConsistency = cl
		cfg.ReadRepair = false
		cfg.AntiEntropyInterval = 0
		h := newHarness(t, cluster.DefaultConfig(), cfg, 6)
		h.generateLoad(3800, 500, 10*time.Second, 500)
		return h.store.Stats().Window.P95
	}
	one := measure(One)
	all := measure(All)
	if all >= one || one <= 0 {
		t.Fatalf("p95 window with ALL (%.6f) not smaller than with ONE (%.6f)", all, one)
	}
}

func TestStaleReadsUnderLoadWithWeakConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.ReadRepair = false
	cfg.AntiEntropyInterval = 0
	h := newHarness(t, cluster.DefaultConfig(), cfg, 7)
	h.generateLoad(2500, 2500, 10*time.Second, 200)
	stats := h.store.Stats()
	if stats.StaleReads == 0 {
		t.Fatal("expected some stale reads under load with ONE/ONE")
	}
	if stats.Reads == 0 || stats.Writes == 0 {
		t.Fatal("load generator issued no operations")
	}
}

func TestUnavailableWhenTooFewReplicas(t *testing.T) {
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 3
	cfg := DefaultConfig()
	cfg.WriteConsistency = All
	h := newHarness(t, clusterCfg, cfg, 8)

	// Fail two of the three nodes: ALL on RF=3 cannot be satisfied.
	nodes := h.cluster.AvailableNodes()
	if err := h.cluster.FailNode(nodes[0].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := h.cluster.FailNode(nodes[1].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	w := h.writeSync("k")
	if !errors.Is(w.Err, ErrUnavailable) && !errors.Is(w.Err, ErrNoNodes) {
		t.Fatalf("write error = %v, want unavailability", w.Err)
	}
	if h.store.Stats().WriteFailures == 0 {
		t.Fatal("write failure not counted")
	}
}

func TestReadFailsWhenClusterDown(t *testing.T) {
	h := defaultHarness(t)
	for _, n := range h.cluster.AvailableNodes() {
		_ = h.cluster.FailNode(n.ID())
	}
	r := h.readSync("k")
	if r.Err == nil {
		t.Fatal("read against fully failed cluster succeeded")
	}
	if h.store.Stats().ReadFailures == 0 {
		t.Fatal("read failure not counted")
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	h := defaultHarness(t)
	h.store.Close()
	h.store.Close() // idempotent
	w := h.writeSync("k")
	if !errors.Is(w.Err, ErrStopped) {
		t.Fatalf("write after Close = %v, want ErrStopped", w.Err)
	}
	r := h.readSync("k")
	if !errors.Is(r.Err, ErrStopped) {
		t.Fatalf("read after Close = %v, want ErrStopped", r.Err)
	}
}

func TestHintedHandoffDeliversAfterRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0 // isolate hinted handoff
	cfg.ReadRepair = false
	h := newHarness(t, cluster.DefaultConfig(), cfg, 9)

	// A failed node keeps its ring position, so writes to keys it replicates
	// queue hints for it while it is down.
	victim := h.cluster.AvailableNodes()[0].ID()
	if err := h.cluster.FailNode(victim); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	for i := 0; i < 60; i++ {
		if w := h.writeSync(Key(fmt.Sprintf("h-%d", i))); w.Err != nil {
			t.Fatalf("write error: %v", w.Err)
		}
	}
	stats := h.store.Stats()
	if stats.HintsQueued == 0 {
		t.Fatal("no hints queued while a replica was down")
	}
	if stats.HintsDelivered != 0 {
		t.Fatal("hints delivered while the replica was still down")
	}
	if h.store.ReplicaKeyCount(victim) != 0 {
		t.Fatal("failed node received writes")
	}

	if err := h.cluster.RecoverNode(victim); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if err := h.engine.Run(h.engine.Now() + 5*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats = h.store.Stats()
	if stats.HintsDelivered == 0 {
		t.Fatal("queued hints were never delivered after recovery")
	}
	if h.store.ReplicaKeyCount(victim) == 0 {
		t.Fatal("recovered node did not catch up from hints")
	}
	if stats.LostUpdates != 0 {
		t.Fatalf("lost updates = %d with hinted handoff enabled", stats.LostUpdates)
	}
}

// TestPartitionHoldsMinorityHintsUntilHeal pins the split-brain semantics:
// a write acknowledged by a minority-side coordinator queues hints for the
// majority replicas, and those hints must NOT replay across the active cut
// on a retry tick — the inconsistency window of a partition closes at the
// heal, not at the next hint-retry interval.
func TestPartitionHoldsMinorityHintsUntilHeal(t *testing.T) {
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 4
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0 // isolate hinted handoff
	cfg.ReadRepair = false
	h := newHarness(t, clusterCfg, cfg, 21)
	net := h.cluster.Network()

	// Isolate one node and write (CL=ONE) until a minority-side coordinator
	// acknowledges a write: its majority replicas become hints whose origin
	// is on the minority side.
	nodes := h.cluster.AvailableNodes()
	minority := nodes[0].ID()
	net.Isolate([]cluster.NodeID{minority})
	for i := 0; i < 200; i++ {
		h.writeSync(Key(fmt.Sprintf("p-%d", i)))
	}
	queued := h.store.Stats().HintsQueued
	if queued == 0 {
		t.Fatal("no hints queued across the partition")
	}

	// Run through several retry intervals with the partition still active:
	// hints whose origin cannot reach their target must stay queued.
	if err := h.engine.Run(h.engine.Now() + 5*hintRetryInterval); err != nil {
		t.Fatalf("Run: %v", err)
	}
	crossCut := 0
	for target := range h.store.pendingHints {
		hints := h.store.backlog(cluster.NodeID(target))
		for _, hint := range hints {
			if !net.Reachable(cluster.NodeID(hint.coord), cluster.NodeID(target)) {
				crossCut++
			}
		}
	}
	if crossCut == 0 {
		t.Fatal("no cross-cut hints retained while the partition was active — they were delivered across the cut")
	}

	// Heal and let the retry ticker run: everything converges.
	net.Heal([]cluster.NodeID{minority})
	if err := h.engine.Run(h.engine.Now() + 2*hintRetryInterval); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.store.Stats().HintsDelivered == 0 {
		t.Fatal("hints never delivered after the heal")
	}
	for target := range h.store.pendingHints {
		hints := h.store.backlog(cluster.NodeID(target))
		if len(hints) > 0 {
			t.Fatalf("%d hints still queued for %v after the heal", len(hints), target)
		}
	}
}

// TestAntiEntropySkipsActivePartition pins that the repair sweep does not
// leak cluster-wide knowledge across an active cut: divergence on either
// side persists until the heal, then the next sweep converges it.
func TestAntiEntropySkipsActivePartition(t *testing.T) {
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 4
	cfg := DefaultConfig()
	cfg.HintedHandoff = false
	cfg.ReadRepair = false
	cfg.AntiEntropyInterval = 2 * time.Second
	h := newHarness(t, clusterCfg, cfg, 22)
	net := h.cluster.Network()

	minority := h.cluster.AvailableNodes()[0].ID()
	net.Isolate([]cluster.NodeID{minority})
	for i := 0; i < 100; i++ {
		h.writeSync(Key(fmt.Sprintf("ae-%d", i)))
	}
	before := h.store.ReplicaKeyCount(minority)
	if err := h.engine.Run(h.engine.Now() + 6*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.store.Stats().AntiEntropyRan == 0 {
		t.Fatal("anti-entropy never ticked")
	}
	if got := h.store.ReplicaKeyCount(minority); got != before {
		t.Fatalf("anti-entropy repaired an isolated node across the cut: %d -> %d keys", before, got)
	}

	net.Heal([]cluster.NodeID{minority})
	if err := h.engine.Run(h.engine.Now() + 6*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := h.store.ReplicaKeyCount(minority); got <= before {
		t.Fatalf("anti-entropy did not converge the minority after the heal: still %d keys", got)
	}
}

func TestAntiEntropyRepairsJoinedNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HintedHandoff = false
	cfg.ReadRepair = false
	cfg.AntiEntropyInterval = 10 * time.Second
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.BootstrapTime = 5 * time.Second
	h := newHarness(t, clusterCfg, cfg, 10)

	for i := 0; i < 60; i++ {
		if w := h.writeSync(Key(fmt.Sprintf("ae-%d", i))); w.Err != nil {
			t.Fatalf("write error: %v", w.Err)
		}
	}
	id, err := h.cluster.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	// Let the node bootstrap and at least one anti-entropy cycle run.
	if err := h.engine.Run(h.engine.Now() + 30*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.store.Stats().AntiEntropyRan == 0 {
		t.Fatal("anti-entropy never ran")
	}
	if h.store.ReplicaKeyCount(id) == 0 {
		t.Fatal("anti-entropy did not populate the new node")
	}
}

func TestLostUpdatesWithoutRepairMechanisms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HintedHandoff = false
	cfg.ReadRepair = false
	cfg.AntiEntropyInterval = 0
	cfg.WriteConsistency = One
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 4
	h := newHarness(t, clusterCfg, cfg, 11)

	// Fail one replica: with handoff, read repair and anti-entropy all
	// disabled, updates destined for it are simply dropped.
	if err := h.cluster.FailNode(h.cluster.AvailableNodes()[0].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	for i := 0; i < 100; i++ {
		h.writeSync(Key(fmt.Sprintf("l-%d", i)))
	}
	if h.store.Stats().LostUpdates == 0 {
		t.Fatal("expected lost updates when all repair mechanisms are disabled")
	}
	if h.store.Stats().HintsQueued != 0 {
		t.Fatal("hints queued although hinted handoff and anti-entropy are disabled")
	}
}

func TestSetReplicationFactor(t *testing.T) {
	h := defaultHarness(t)
	if err := h.store.SetReplicationFactor(0); err == nil {
		t.Fatal("rf=0 accepted")
	}
	if err := h.store.SetReplicationFactor(3); err != nil {
		t.Fatalf("no-op rf change failed: %v", err)
	}
	if err := h.store.SetReplicationFactor(1); err != nil {
		t.Fatalf("rf=1: %v", err)
	}
	if h.store.ReplicationFactor() != 1 {
		t.Fatal("rf not updated")
	}
	if err := h.store.SetReplicationFactor(3); err != nil {
		t.Fatalf("rf=3: %v", err)
	}
	// Growing RF triggers a rebalance: nodes carry streaming load now.
	loaded := false
	for _, n := range h.cluster.AvailableNodes() {
		if n.RebalanceLoad() > 0 {
			loaded = true
		}
	}
	if !loaded {
		t.Fatal("rebalance load not applied after RF increase")
	}
	if err := h.engine.Run(h.engine.Now() + time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, n := range h.cluster.AvailableNodes() {
		if n.RebalanceLoad() != 0 {
			t.Fatal("rebalance load not cleared")
		}
	}
}

func TestSetConsistencyLevels(t *testing.T) {
	h := defaultHarness(t)
	h.store.SetReadConsistency(Quorum)
	h.store.SetWriteConsistency(All)
	if h.store.ReadConsistency() != Quorum || h.store.WriteConsistency() != All {
		t.Fatal("consistency setters did not apply")
	}
	h.store.SetReadConsistency(ConsistencyLevel(99))
	if h.store.ReadConsistency() != Quorum {
		t.Fatal("invalid consistency level was accepted")
	}
}

func TestObserverReceivesWriteObservations(t *testing.T) {
	h := defaultHarness(t)
	var observed []WriteObservation
	h.store.Subscribe(observerFunc(func(o WriteObservation) { observed = append(observed, o) }))
	h.store.Subscribe(nil) // ignored
	h.writeSync("obs")
	// The observation is emitted once every reachable replica has
	// acknowledged, which happens shortly after the client acknowledgement at
	// CL=ONE; drain the remaining in-flight events.
	h.runUntil(func() bool { return len(observed) > 0 }, 100000)
	if len(observed) != 1 {
		t.Fatalf("observer received %d observations, want 1", len(observed))
	}
	o := observed[0]
	if o.Replicas != 3 || o.Acked == 0 || o.AckedAt <= o.IssuedAt {
		t.Fatalf("implausible observation %+v", o)
	}
}

type observerFunc func(WriteObservation)

func (f observerFunc) ObserveWrite(o WriteObservation) { f(o) }

func TestResetStats(t *testing.T) {
	h := defaultHarness(t)
	h.writeSync("a")
	h.readSync("a")
	h.store.ResetStats()
	s := h.store.Stats()
	if s.Writes != 0 || s.Reads != 0 || s.WriteLatency.Count != 0 {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
}

func TestRecentWindowQuantile(t *testing.T) {
	h := defaultHarness(t)
	for i := 0; i < 20; i++ {
		h.writeSync(Key(fmt.Sprintf("w-%d", i)))
	}
	if q := h.store.RecentWindowQuantile(0.99); q < 0 {
		t.Fatalf("recent window quantile negative: %v", q)
	}
}

func TestReadRepairConvergesReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	measure := func(readRepair bool) uint64 {
		cfg := DefaultConfig()
		cfg.ReadRepair = readRepair
		cfg.AntiEntropyInterval = 0
		h := newHarness(t, cluster.DefaultConfig(), cfg, 12)
		h.generateLoad(2000, 4000, 8*time.Second, 50)
		return h.store.Stats().ReadRepairs
	}
	withRepair := measure(true)
	withoutRepair := measure(false)
	if withRepair == 0 {
		t.Fatal("read repair enabled but never triggered under load")
	}
	if withoutRepair != 0 {
		t.Fatal("read repair triggered although disabled")
	}
}

// TestVersionSpaceExhausted pins what happens when the 32-bit version space
// runs out: the write that takes math.MaxUint32 is acknowledged as usual, and
// the next write fails with ErrVersionsExhausted, counted as a failed write.
// Nothing wraps: no replica and no acknowledged slot goes back below the last
// version, and reads keep answering it.
func TestVersionSpaceExhausted(t *testing.T) {
	h := defaultHarness(t)
	s := h.store
	const key = Key("key-7")
	if r := h.writeSync(key); r.Err != nil || r.Version != 1 {
		t.Fatalf("first write: version %d, err %v", r.Version, r.Err)
	}
	settle := func() {
		t.Helper()
		if err := h.engine.Run(h.engine.Now() + time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	// versions returns the key's acknowledged version and what each replica
	// holds.
	versions := func() (acked version, held []version) {
		id := s.KeyID(key)
		for _, rep := range s.replicas {
			if rep != nil {
				held = append(held, rep.read(id))
			}
		}
		return s.latestAcked.get(id), held
	}
	settle()

	NearVersionExhaustion(s)
	if r := h.writeSync(key); r.Err != nil || r.Version != math.MaxUint32 {
		t.Fatalf("last write: version %d, err %v, want %d acknowledged", r.Version, r.Err, uint64(math.MaxUint32))
	}
	settle()
	acked, held := versions()
	if acked != math.MaxUint32 {
		t.Fatalf("acknowledged version %d, want %d", acked, uint64(math.MaxUint32))
	}

	before := s.Stats()
	if r := h.writeSync(key); !errors.Is(r.Err, ErrVersionsExhausted) || r.Version != 0 {
		t.Fatalf("write past the last version: version %d, err %v, want ErrVersionsExhausted", r.Version, r.Err)
	}
	settle()
	after := s.Stats()
	if after.WriteFailures != before.WriteFailures+1 || after.Writes != before.Writes {
		t.Errorf("failed write counted as %d failures and %d writes, want 1 and 0",
			after.WriteFailures-before.WriteFailures, after.Writes-before.Writes)
	}
	acked2, held2 := versions()
	if acked2 != acked || !slices.Equal(held2, held) {
		t.Errorf("after the failed write: acknowledged %d, replicas %v; want %d and %v unchanged", acked2, held2, acked, held)
	}
	if r := h.readSync(key); r.Err != nil || r.Version != math.MaxUint32 || r.Stale {
		t.Errorf("read after exhaustion: version %d, stale %v, err %v", r.Version, r.Stale, r.Err)
	}
}
