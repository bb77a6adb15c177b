package store

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"autonosql/internal/cluster"
	"autonosql/internal/memtest"
)

// backlog lists a replica's queued hints, oldest first, and checks the
// queue's count and tail against its links.
func (s *Store) backlog(id cluster.NodeID) []*hint {
	q := s.pendingHints[id]
	var hints []*hint
	for h := q.head; h != nil; h = h.next {
		hints = append(hints, h)
	}
	if len(hints) != q.n || len(hints) > 0 && hints[len(hints)-1] != q.tail || len(hints) == 0 && q.tail != nil {
		panic(fmt.Sprintf("backlog of node %d: %d linked hints, count %d, tail %p", id, len(hints), q.n, q.tail))
	}
	return hints
}

// TestHintBacklogGrowthBytes pins that a backlog costs nothing of its own:
// it is threaded through the hints, so queueing 50 000 hints for an isolated
// replica allocates only the hints' slab blocks, 50 000 × 32 B and at most
// one block more, however deep the backlog grows.
func TestHintBacklogGrowthBytes(t *testing.T) {
	const n = 50_000
	const block = 16 << 10 // sim.Slab's block size
	maxBytes := uint64(n*unsafe.Sizeof(hint{}) + block)
	maxMallocs := maxBytes / block
	// Each reading fills a fresh store's backlog.
	bytes, mallocs := memtest.Growth(func(measure func(func())) {
		h := newHarness(t, cluster.DefaultConfig(), DefaultConfig(), 1)
		s, nodes := h.store, h.cluster.AvailableNodes()
		down := nodes[1].ID()
		h.cluster.Network().Isolate([]cluster.NodeID{down})
		// One write's state and a window per hint, made before the reading.
		op := &opState{store: s, coord: nodes[0]}
		wins := make([]*window, n)
		for i := range wins {
			wins[i] = take(&s.windows)
			*wins[i] = window{store: s, remaining: 1, refs: 1}
		}
		measure(func() {
			for i, w := range wins {
				op.key, op.ver, op.win = KeyID(i), version(i+1), w
				s.queueHint(op, int32(down))
			}
		})
		queued := s.backlog(down)
		if len(queued) != n || s.Stats().LostUpdates != 0 {
			t.Fatalf("backlog holds %d hints, %d lost, want %d, none lost", len(queued), s.Stats().LostUpdates, n)
		}
		if !slices.IsSortedFunc(queued, func(a, b *hint) int { return int(a.ver) - int(b.ver) }) {
			t.Fatal("the backlog is not in queueing order")
		}
	})
	t.Logf("queueing %d hints: %d B in %d allocations", n, bytes, mallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Errorf("queueing %d hints allocated %d B in %d allocations, want at most %d B in %d (hint slab blocks)",
			n, bytes, mallocs, maxBytes, maxMallocs)
	}
}

// TestHintBacklogDrainsInPlace pins the hint backlog's drain: a 50 000-entry
// backlog replays oldest first, a throttled batch per retry round, and a
// round costs a constant handful of allocations however much backlog remains
// — replayed hints are unlinked from the backlog, the rest keep their order,
// and every replayed hint travels on its own record. (It used to copy the
// whole remaining backlog and allocate two closures per hint, every round.)
func TestHintBacklogDrainsInPlace(t *testing.T) {
	const backlog = 50_000
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0 // the retry ticker alone paces the replay
	h := newHarness(t, cluster.DefaultConfig(), cfg, 1)
	down := h.cluster.AvailableNodes()[2].ID()
	if err := h.cluster.FailNode(down); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	issued, fired := 0, 0
	for ; issued < backlog; issued++ {
		h.store.WriteID(KeyID(issued), func(Result) { fired++ })
		if issued%64 == 63 { // a little concurrency, well inside the nodes' queues
			h.runUntil(func() bool { return fired == issued+1 }, 1_000_000)
		}
	}
	h.runUntil(func() bool { return fired == issued }, 1_000_000)
	if got := len(h.store.backlog(down)); got != backlog {
		t.Fatalf("%d hints queued for the crashed node, want %d", got, backlog)
	}

	ascending := func(a, b *hint) int { return int(a.ver) - int(b.ver) }
	if err := h.cluster.RecoverNode(down); err != nil { // replays the first batch
		t.Fatalf("RecoverNode: %v", err)
	}
	limit := backlog - len(h.store.backlog(down))
	if limit <= 0 || limit >= backlog/4 {
		t.Fatalf("first replay batch is %d hints: the throttle is not what this test assumes", limit)
	}
	var ms runtime.MemStats
	for round := 1; len(h.store.backlog(down)) > 0; round++ {
		before := len(h.store.backlog(down))
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		if err := h.engine.Run(h.engine.Now() + hintRetryInterval); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&ms)
		rest := h.store.backlog(down)
		if want := max(before-limit, 0); len(rest) != want {
			t.Fatalf("round %d left %d hints, want %d", round, len(rest), want)
		}
		if !slices.IsSortedFunc(rest, ascending) {
			t.Fatalf("round %d reordered the backlog", round)
		}
		if len(rest) > 0 && int(rest[0].ver) != backlog-len(rest)+1 {
			t.Fatalf("round %d replayed out of order: oldest remaining hint is version %d, want %d",
				round, rest[0].ver, backlog-len(rest)+1)
		}
		// The first round grows the event pool to a batch's worth of
		// in-flight events; after that a round is O(1) (measured: 6 to 12).
		if round > 1 && ms.Mallocs-mallocs > 32 {
			t.Errorf("round %d (%d hints queued) allocated %d objects, want O(1)", round, before, ms.Mallocs-mallocs)
		}
	}
	if err := h.engine.Run(h.engine.Now() + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := h.store.Stats()
	if st.HintsDelivered != backlog || st.LostUpdates != 0 {
		t.Fatalf("delivered %d hints and lost %d updates, want %d and 0", st.HintsDelivered, st.LostUpdates, backlog)
	}
	if got := h.store.ReplicaKeyCount(down); got != backlog {
		t.Fatalf("recovered replica holds %d keys, want %d", got, backlog)
	}
}

// TestHintsDoNotHoldTheirWrite pins what a queued hint keeps alive: its own
// 32-byte record and its write's 48-byte window tracker, not the write's op
// state. With one replica crashed, 10 000 writes at CL=ONE each leave a hint
// for it; once every client has its acknowledgement and the writes' events
// have run, every op state is back in its pool while all 10 000 hints, and
// the 10 000 windows they settle, stay queued.
func TestHintsDoNotHoldTheirWrite(t *testing.T) {
	const writes = 10_000
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0
	h := newHarness(t, cluster.DefaultConfig(), cfg, 3)
	down := h.cluster.AvailableNodes()[1].ID()
	if err := h.cluster.FailNode(down); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	issued, acked := 0, 0
	cb := func(r Result) {
		if r.Err == nil {
			acked++
		}
	}
	for ; issued < writes; issued++ {
		h.store.WriteID(KeyID(issued), cb)
		if issued%64 == 63 {
			h.runUntil(func() bool { return acked == issued+1 }, 1_000_000)
		}
	}
	h.runUntil(func() bool { return acked == writes }, 1_000_000)
	// Let the writes' replica applies and acknowledgements land; the crashed
	// node keeps its backlog whatever the retry ticker does meanwhile.
	if err := h.engine.Run(h.engine.Now() + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := h.store
	if got := len(s.backlog(down)); got != writes {
		t.Fatalf("%d hints queued for the crashed node, want %d", got, writes)
	}
	if got := s.ops.Live(); got != 0 {
		t.Errorf("%d op states live with every write acknowledged and only hints outstanding, want 0", got)
	}
	if got := s.hints.Live(); got != writes {
		t.Errorf("%d hint records live, want one per queued hint (%d)", got, writes)
	}
	if got := s.windows.Live(); got != writes {
		t.Errorf("%d window trackers live, want one per hinted write (%d)", got, writes)
	}
}

// TestHintConservation follows every hint through a crash, a partition, a
// replay cut short by a second crash and the removal of a node that has a
// backlog. Each queued hint must end up delivered, lost, released when its
// node left, or still pending; once the faults are over and the backlogs
// drained, every acknowledged write has recorded exactly one window and no
// record of any kind is left out of its pool.
func TestHintConservation(t *testing.T) {
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 5
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0 // hinted handoff alone converges the replicas
	h := newHarness(t, clusterCfg, cfg, 9)
	s, net := h.store, h.cluster.Network()
	nodes := h.cluster.AvailableNodes()
	crashed, cut := nodes[1].ID(), nodes[3].ID()

	issued, fired, acked := 0, 0, 0
	burst := func(n int) {
		for i := 0; i < n; i++ {
			s.WriteID(KeyID(issued%20_000), func(r Result) {
				fired++
				if r.Err == nil {
					acked++
				}
			})
			if issued++; issued%32 == 0 {
				h.runUntil(func() bool { return fired == issued }, 1_000_000)
			}
		}
		h.runUntil(func() bool { return fired == issued }, 1_000_000)
	}
	run := func(d time.Duration) {
		t.Helper()
		if err := h.engine.Run(h.engine.Now() + d); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("fault script: %v", err)
		}
	}
	pending := func() (n int) {
		for id := range s.pendingHints {
			n += len(s.backlog(cluster.NodeID(id)))
		}
		return n
	}
	// Between faults nothing is in flight: the hint records out of their
	// pool are exactly the queued ones.
	quiet := func(step string) {
		t.Helper()
		run(100 * time.Millisecond)
		if live, queued := s.hints.Live(), pending(); live != queued {
			t.Fatalf("%s: %d hint records live, %d queued", step, live, queued)
		}
	}

	burst(1_000)
	must(h.cluster.FailNode(crashed))
	burst(4_000)
	quiet("crash")

	// A partition: writes coordinated on either side leave hints for the
	// other, and retry rounds must keep the cross-cut ones.
	net.Isolate([]cluster.NodeID{cut})
	burst(4_000)
	run(2 * hintRetryInterval)
	quiet("partition")

	// Recovery starts a replay, a batch spaced over about two seconds; a
	// second crash before it lands loses the hints in flight.
	must(h.cluster.RecoverNode(crashed))
	must(h.cluster.FailNode(crashed))
	run(2 * time.Second)
	lost := s.Stats().LostUpdates
	if lost == 0 {
		t.Fatal("no hint was lost to the second crash")
	}
	quiet("second crash")

	// The isolated node leaves with its backlog, which is released.
	released := len(s.backlog(cut))
	if released == 0 {
		t.Fatal("the isolated node has no backlog to release")
	}
	must(h.cluster.RemoveNode(cut))
	if got := len(s.backlog(cut)); got != 0 {
		t.Fatalf("%d hints still queued for the departed node", got)
	}
	burst(2_000)
	quiet("removal")

	net.Heal([]cluster.NodeID{cut})
	must(h.cluster.RecoverNode(crashed))
	run(3 * time.Minute)

	st := s.Stats()
	t.Logf("%d writes, %d acknowledged; hints: %d queued, %d delivered, %d lost, %d released", issued, acked, st.HintsQueued, st.HintsDelivered, st.LostUpdates, released)
	// Hinted handoff is on and no backlog nears its cap, so every lost
	// update is a queued hint lost on arrival.
	if want := st.HintsDelivered + st.LostUpdates + uint64(released) + uint64(pending()); st.HintsQueued != want {
		t.Errorf("%d hints queued, but %d delivered + %d lost + %d released + %d pending = %d",
			st.HintsQueued, st.HintsDelivered, st.LostUpdates, released, pending(), want)
	}
	if n := pending(); n != 0 {
		t.Errorf("%d hints still pending after the heal and the drain", n)
	}
	if st.Window.Count != uint64(acked) {
		t.Errorf("%d windows recorded for %d acknowledged writes", st.Window.Count, acked)
	}
	if ops, wins, hints := s.ops.Live(), s.windows.Live(), s.hints.Live(); ops+wins+hints != 0 {
		t.Errorf("after the drain %d op states, %d windows and %d hints are live, want none", ops, wins, hints)
	}
	if acked == issued || st.HintsDelivered == 0 {
		t.Fatalf("script did not exercise what it should: %d of %d writes acknowledged, %+v", acked, issued, st)
	}
}

// TestDepartedReplicaTakesNoHints pins what happens to a mutation whose
// replica leaves the cluster while the mutation is on its way: 200 writes are
// issued on five nodes, one replica is cut off and removed before any
// mutation lands, and the partition heals a minute later. A mutation for the
// departed replica is a lost update, not a hint: the replica's backlog was
// released when it left and nothing would ever replay into it again, so a
// hint queued there would keep its write's window open for good.
func TestDepartedReplicaTakesNoHints(t *testing.T) {
	const writes = 200
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 5
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0 // hinted handoff alone converges the replicas
	h := newHarness(t, clusterCfg, cfg, 5)
	s, net := h.store, h.cluster.Network()
	x := h.cluster.AvailableNodes()[2].ID()

	fired, acked, toX := 0, 0, 0
	for i := 0; i < writes; i++ {
		if slices.Contains(s.replicasForRepair(KeyID(i)), x) {
			toX++
		}
		s.WriteID(KeyID(i), func(r Result) {
			fired++
			if r.Err == nil {
				acked++
			}
		})
	}
	net.Isolate([]cluster.NodeID{x})
	if err := h.cluster.RemoveNode(x); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	run := func(d time.Duration) {
		t.Helper()
		if err := h.engine.Run(h.engine.Now() + d); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	// Every mutation has landed; the partition keeps every hint queued.
	run(time.Second)
	if fired != writes {
		t.Fatalf("%d of %d writes answered", fired, writes)
	}
	if got := len(s.backlog(x)); got != 0 {
		t.Fatalf("%d hints queued for the departed node", got)
	}
	departed := s.Stats().LostUpdates
	if departed == 0 || departed > uint64(toX) {
		t.Fatalf("%d mutations for the departed node lost, want 1..%d", departed, toX)
	}

	run(time.Minute)
	net.Heal([]cluster.NodeID{x})
	run(3 * time.Minute)

	st := s.Stats()
	pending := 0
	for id := range s.pendingHints {
		pending += len(s.backlog(cluster.NodeID(id)))
	}
	if want := st.HintsDelivered + (st.LostUpdates - departed) + uint64(pending); st.HintsQueued != want {
		t.Errorf("%d hints queued, but %d delivered + %d lost + %d pending = %d",
			st.HintsQueued, st.HintsDelivered, st.LostUpdates-departed, pending, want)
	}
	if pending != 0 {
		t.Errorf("%d hints still pending after the heal", pending)
	}
	if st.Window.Count != uint64(acked) {
		t.Errorf("%d windows recorded for %d acknowledged writes", st.Window.Count, acked)
	}
	if ops, wins, hints := s.ops.Live(), s.windows.Live(), s.hints.Live(); ops+wins+hints != 0 {
		t.Errorf("%d op states, %d windows and %d hints are live, want none", ops, wins, hints)
	}
	if acked == 0 || st.HintsQueued == 0 {
		t.Fatalf("script did not exercise what it should: %d writes acknowledged, %+v", acked, st)
	}
}

// TestDepartedReplicaDropsReplayInFlight is the replay side of the same
// rule: a crashed replica recovers and starts taking its backlog, then is cut
// off and removed while the replayed hints are on their way. The hints that
// can no longer cross the cut are lost, not requeued into a backlog nothing
// replays.
func TestDepartedReplicaDropsReplayInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AntiEntropyInterval = 0
	h := newHarness(t, cluster.DefaultConfig(), cfg, 5)
	s := h.store
	y := h.cluster.AvailableNodes()[1].ID()
	if err := h.cluster.FailNode(y); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	fired, acked := 0, 0
	for i := 0; i < 500; i++ {
		s.WriteID(KeyID(i), func(r Result) {
			fired++
			if r.Err == nil {
				acked++
			}
		})
	}
	h.runUntil(func() bool { return fired == 500 }, 1_000_000)
	if err := h.engine.Run(h.engine.Now() + 100*time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	queued := len(s.backlog(y))
	if err := h.cluster.RecoverNode(y); err != nil { // the replay leaves the backlog
		t.Fatalf("RecoverNode: %v", err)
	}
	if len(s.backlog(y)) == queued {
		t.Fatal("recovery replayed nothing")
	}
	h.cluster.Network().Isolate([]cluster.NodeID{y})
	if err := h.cluster.RemoveNode(y); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if err := h.engine.Run(h.engine.Now() + time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(s.backlog(y)); got != 0 {
		t.Fatalf("%d replayed hints requeued for the departed node", got)
	}
	if st := s.Stats(); st.Window.Count != uint64(acked) || st.LostUpdates == 0 {
		t.Errorf("%d windows recorded for %d acknowledged writes, %d updates lost", st.Window.Count, acked, st.LostUpdates)
	}
	if wins, hints := s.windows.Live(), s.hints.Live(); wins+hints != 0 {
		t.Errorf("%d windows and %d hints are live, want none", wins, hints)
	}
}
