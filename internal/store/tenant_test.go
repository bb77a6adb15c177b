package store

import (
	"testing"
	"time"
)

// TestTenantTagging drives tagged and untagged operations through the raw op
// path and checks that ground truth is attributed to the right tenant while
// the aggregate still counts everything.
func TestTenantTagging(t *testing.T) {
	rig := newBenchRig(t, 3)
	rig.store.RegisterTenants(2)
	fired := 0
	cb := func(Result) { fired++ }

	issued := 0
	for i := 0; i < 60; i++ {
		rig.store.WriteAs(1, rig.ids[i], cb)
		issued++
	}
	for i := 0; i < 40; i++ {
		rig.store.WriteAs(2, rig.ids[100+i], cb)
		issued++
	}
	for i := 0; i < 10; i++ {
		rig.store.Write(rig.keys[200+i], cb) // untagged
		issued++
	}
	rig.settle(t, &fired, issued)
	for i := 0; i < 30; i++ {
		rig.store.ReadAs(1, rig.ids[i], cb)
		issued++
	}
	for i := 0; i < 20; i++ {
		rig.store.ReadAs(2, rig.ids[100+i], cb)
		issued++
	}
	rig.settle(t, &fired, issued)
	// A write's window resolves only when its last replica applied it; the
	// burst above drops some mutations into hints, so run the clock past a
	// few hint-retry sweeps to let every tracker resolve.
	if err := rig.engine.Run(rig.engine.Now() + 30*time.Second); err != nil {
		t.Fatalf("draining engine: %v", err)
	}

	agg := rig.store.Stats()
	t1 := rig.store.TenantStats(1)
	t2 := rig.store.TenantStats(2)

	if t1.Writes != 60 || t2.Writes != 40 {
		t.Errorf("tenant writes = %d/%d, want 60/40", t1.Writes, t2.Writes)
	}
	if t1.Reads != 30 || t2.Reads != 20 {
		t.Errorf("tenant reads = %d/%d, want 30/20", t1.Reads, t2.Reads)
	}
	if agg.Writes != 110 || agg.Reads != 50 {
		t.Errorf("aggregate = %d writes / %d reads, want 110/50", agg.Writes, agg.Reads)
	}
	if t1.WriteLatency.Count != 60 || t2.WriteLatency.Count != 40 {
		t.Errorf("tenant write latency counts = %d/%d, want 60/40",
			t1.WriteLatency.Count, t2.WriteLatency.Count)
	}
	// Every acknowledged tagged write eventually resolves a window
	// observation for its tenant.
	if t1.Window.Count != 60 || t2.Window.Count != 40 {
		t.Errorf("tenant window counts = %d/%d, want 60/40", t1.Window.Count, t2.Window.Count)
	}
	if q := rig.store.TenantRecentWindowQuantile(1, 0.95); q < 0 {
		t.Errorf("tenant window quantile negative: %v", q)
	}
}

// TestTenantTaggingZeroAndUnregistered pins that tag zero and out-of-range
// tags are safe no-ops.
func TestTenantTaggingZeroAndUnregistered(t *testing.T) {
	rig := newBenchRig(t, 3)
	fired := 0
	cb := func(Result) { fired++ }
	// No tenants registered: tagged ops must not panic and must count in the
	// aggregate only.
	rig.store.WriteAs(3, rig.ids[0], cb)
	rig.store.ReadAs(-1, rig.ids[0], cb)
	rig.settle(t, &fired, 2)
	if got := rig.store.Stats().Writes; got != 1 {
		t.Errorf("aggregate writes = %d, want 1", got)
	}
	if gt := rig.store.TenantStats(3); gt.Writes != 0 {
		t.Errorf("unregistered tenant recorded %d writes", gt.Writes)
	}
	if q := rig.store.TenantRecentWindowQuantile(0, 0.95); q != 0 {
		t.Errorf("aggregate-id tenant quantile = %v, want 0", q)
	}
}

// TestTenantTaggingAllocationFree pins that tagged operations stay at the
// single-allocation hot path: the per-tenant counters and histograms are
// preallocated at registration.
func TestTenantTaggingAllocationFree(t *testing.T) {
	rig := newBenchRig(t, 3)
	rig.store.RegisterTenants(1)
	fired := 0
	cb := func(Result) { fired++ }
	issued := 0
	for ; issued < 128; issued++ {
		rig.store.WriteAs(1, rig.ids[issued%len(rig.keys)], cb)
	}
	rig.settle(t, &fired, issued)

	avg := testing.AllocsPerRun(300, func() {
		issued++
		rig.store.WriteAs(1, rig.ids[issued%len(rig.keys)], cb)
		rig.settle(t, &fired, issued)
	})
	if avg > maxWriteAllocs {
		t.Errorf("tagged write path allocates %.1f objects per op, want <= %d", avg, maxWriteAllocs)
	}
}
