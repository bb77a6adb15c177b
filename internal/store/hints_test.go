package store

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"autonosql/internal/cluster"
)

// TestHintBacklogDrainsInPlace pins the hint backlog's drain: a 50 000-entry
// backlog replays oldest first, a throttled batch per retry round, and a
// round costs a constant handful of allocations however much backlog remains
// — the backlog is compacted in place and every replayed hint travels on its
// write's own replica slot. (It used to copy the whole remaining backlog and
// allocate two closures per hint, every round.)
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
	if got := len(h.store.pendingHints[down]); got != backlog {
		t.Fatalf("%d hints queued for the crashed node, want %d", got, backlog)
	}

	ascending := func(a, b *opSlot) int { return int(a.op.ver) - int(b.op.ver) }
	if err := h.cluster.RecoverNode(down); err != nil { // replays the first batch
		t.Fatalf("RecoverNode: %v", err)
	}
	limit := backlog - len(h.store.pendingHints[down])
	if limit <= 0 || limit >= backlog/4 {
		t.Fatalf("first replay batch is %d hints: the throttle is not what this test assumes", limit)
	}
	var ms runtime.MemStats
	for round := 1; len(h.store.pendingHints[down]) > 0; round++ {
		before := len(h.store.pendingHints[down])
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		if err := h.engine.Run(h.engine.Now() + hintRetryInterval); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&ms)
		rest := h.store.pendingHints[down]
		if want := max(before-limit, 0); len(rest) != want {
			t.Fatalf("round %d left %d hints, want %d", round, len(rest), want)
		}
		if !slices.IsSortedFunc(rest, ascending) {
			t.Fatalf("round %d reordered the backlog", round)
		}
		if len(rest) > 0 && int(rest[0].op.ver) != backlog-len(rest)+1 {
			t.Fatalf("round %d replayed out of order: oldest remaining hint is version %d, want %d",
				round, rest[0].op.ver, backlog-len(rest)+1)
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
