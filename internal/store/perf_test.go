package store

// Allocation-regression tests for the operation hot path. Steady state is
// exactly zero: op state comes off the store's free list, every hop is a
// pre-bound ArgHandler event, per-key state lives in paged columns indexed by
// key id and failures, hints and read repair reuse the op's own replica slots
// (see PERFORMANCE.md, "Where the time and bytes go"). AllocsPerRun reports
// whole objects per run, so a reintroduced per-operation slice, map entry or
// closure trips these at once, while a structure that still grows every few
// thousand operations does not.
//
// The write and read guards run over replication factors on both sides of
// the op state's inline slots:
//
//	RF  nodes  slots
//	 1      3  inline
//	 3      3  inline (the default)
//	 5      5  inline, all of them
//	 9      9  the overflow slice, allocated once per state in warm-up
//
// Reads run at ALL so that each one fans out to, and keeps a slot for, every
// replica of the factor.

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"autonosql/internal/cluster"
)

// maxWriteAllocs bounds the average allocations for one complete write
// (coordinator hop, replica fan-out, acks, client ack, window tracking).
const maxWriteAllocs = 0

// maxReadAllocs bounds the average allocations for one complete read.
const maxReadAllocs = 0

// TestOpStateSize pins the per-operation footprint. A saturated scenario
// holds thousands of op states in flight and, behind its slowest replicas,
// tens of thousands of hints and the window trackers they settle, so the
// three records' sizes are a large share of the peak heap.
func TestOpStateSize(t *testing.T) {
	const maxOpState, maxOpSlot, maxHint, maxWindow = 240, 16, 32, 48
	op, slot := unsafe.Sizeof(opState{}), unsafe.Sizeof(opSlot{})
	h, w := unsafe.Sizeof(hint{}), unsafe.Sizeof(window{})
	t.Logf("opState %d B (%d inline slots), opSlot %d B, hint %d B, window %d B", op, len(opState{}.slotsBuf), slot, h, w)
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{{"opState", op, maxOpState}, {"opSlot", slot, maxOpSlot}, {"hint", h, maxHint}, {"window", w, maxWindow}} {
		if c.size > c.max {
			t.Errorf("%s is %d B, want at most %d", c.name, c.size, c.max)
		}
	}
}

// slotCases are the replication factors of the table above.
var slotCases = []struct{ rf, nodes int }{{1, 3}, {3, 3}, {5, 5}, {9, 9}}

// opPathAllocs warms a rig of the given shape with writes, then returns the
// average allocations of one complete operation issued by op.
func opPathAllocs(t *testing.T, rf, nodes int, op func(*Store, Key, func(Result))) float64 {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = rf
	cfg.ReadConsistency = All
	rig := newBenchRigConfig(t, nodes, cfg)
	fired := 0
	cb := func(Result) { fired++ }
	// Warm the event pool, the store's scratch buffers and, past the inline
	// slots, the overflow slices of the free list's states.
	issued := 0
	for ; issued < 128; issued++ {
		rig.store.Write(rig.keys[issued%len(rig.keys)], cb)
	}
	rig.settle(t, &fired, issued)
	return testing.AllocsPerRun(300, func() {
		issued++
		op(rig.store, rig.keys[issued%len(rig.keys)], cb)
		rig.settle(t, &fired, issued)
	})
}

func TestWritePathAllocations(t *testing.T) {
	for _, c := range slotCases {
		t.Run(fmt.Sprintf("rf%d", c.rf), func(t *testing.T) {
			if avg := opPathAllocs(t, c.rf, c.nodes, (*Store).Write); avg > maxWriteAllocs {
				t.Errorf("write path allocates %.1f objects per op, want <= %d — a per-operation allocation crept back in", avg, maxWriteAllocs)
			}
		})
	}
}

func TestReadPathAllocations(t *testing.T) {
	for _, c := range slotCases {
		t.Run(fmt.Sprintf("rf%d", c.rf), func(t *testing.T) {
			if avg := opPathAllocs(t, c.rf, c.nodes, (*Store).Read); avg > maxReadAllocs {
				t.Errorf("read path allocates %.1f objects per op, want <= %d — a per-operation allocation crept back in", avg, maxReadAllocs)
			}
		})
	}
}

// TestRingLookupAllocations pins the zero-allocation property of the ring
// lookup with a reused scratch buffer.
func TestRingLookupAllocations(t *testing.T) {
	rig := newBenchRig(t, 5)
	ring := rig.store.ring
	out := ring.AppendReplicasFor(nil, rig.keys[0], 3)
	avg := testing.AllocsPerRun(200, func() {
		out = ring.AppendReplicasFor(out[:0], rig.keys[1], 3)
	})
	if avg != 0 {
		t.Errorf("ring lookup allocates %.1f objects per call with a reused buffer, want 0", avg)
	}
}

// TestFaultChecksAllocationFree pins that the fault-awareness added to the
// op path — coordinator-relative replica partitioning and the network
// reachability/isolation checks — contributes zero allocations, with and
// without an active partition. Together with the write/read thresholds above
// this guarantees a scenario that declares no faults keeps the recorded
// BENCH baseline: the fault engine's entire hot-path footprint is these
// checks.
func TestFaultChecksAllocationFree(t *testing.T) {
	rig := newBenchRig(t, 5)
	net := rig.store.cluster.Network()
	ids := make([]cluster.NodeID, 0, 3)
	for _, n := range rig.store.cluster.AvailableNodes()[:3] {
		ids = append(ids, n.ID())
	}
	coord := ids[0]

	check := func(label string) {
		t.Helper()
		avg := testing.AllocsPerRun(300, func() {
			replicas := rig.store.appendReplicas(rig.ids[0])
			rig.store.partitionReplicas(coord, replicas)
			net.Reachable(coord, ids[1])
			net.Isolated(ids[2])
		})
		if avg != 0 {
			t.Errorf("%s: fault checks allocate %.1f objects per op, want 0", label, avg)
		}
	}
	check("no partition")
	net.Isolate(ids[1:2])
	check("partition active")
	net.Heal(ids[1:2])
}

// TestFreeListSlabRefill pins that op state and pooled events refill from
// slabs: a fresh store taking 10 000 writes at one instant — 10 000 op
// states, window trackers and dispatch events in flight, none of them
// recycled yet — allocates one object per slab block plus a constant (the
// event heap's growth), not one object per state and per event.
func TestFreeListSlabRefill(t *testing.T) {
	const writes, slab = 10_000, 64 // slab: the fewest elements a sim.Slab block holds
	for _, rf := range []int{3, 5} {
		t.Run(fmt.Sprintf("rf%d", rf), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ReplicationFactor = rf
			rig := newBenchRigConfig(t, 5, cfg)
			cb := func(Result) {}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < writes; i++ {
				rig.store.WriteID(rig.ids[i%len(rig.ids)], cb)
			}
			runtime.ReadMemStats(&after)
			if got, limit := after.Mallocs-before.Mallocs, uint64(2*writes/slab+64); got > limit {
				t.Errorf("%d writes in flight allocated %d objects, want at most %d", writes, got, limit)
			}
			if p := rig.engine.Profile(); p.PoolMisses < writes || rig.engine.Pending() < writes {
				t.Fatalf("%d pool misses, %d events pending: the writes are not all in flight", p.PoolMisses, rig.engine.Pending())
			}
		})
	}
}
