package store

import (
	"slices"
	"testing"

	"autonosql/internal/cluster"
)

// TestRingAppendReplicasBiased pins the biased walk: a preferred set anchors
// the front of the preference list, the complement fills the rest, and an
// empty set (or a set covering nothing) degrades to the plain walk.
func TestRingAppendReplicasBiased(t *testing.T) {
	ring := NewRing(16)
	for id := cluster.NodeID(1); id <= 6; id++ {
		ring.Add(id)
	}
	key := Key("some-key")
	dedicated := []cluster.NodeID{2, 5}

	// preferIn=true: the dedicated nodes lead the list.
	got := ring.appendBiasedAt(nil, hashString(key), 3, dedicated, true)
	if len(got) != 3 {
		t.Fatalf("biased list %v, want 3 entries", got)
	}
	if !slices.Contains(dedicated, got[0]) || !slices.Contains(dedicated, got[1]) {
		t.Errorf("pinned walk %v does not lead with the dedicated nodes %v", got, dedicated)
	}
	if slices.Contains(dedicated, got[2]) {
		t.Errorf("pinned walk %v found a third dedicated node in a set of two", got)
	}

	// preferIn=false: no dedicated node appears while the shared pool can
	// satisfy rf.
	got = ring.appendBiasedAt(got[:0], hashString(key), 3, dedicated, false)
	for _, id := range got {
		if slices.Contains(dedicated, id) {
			t.Errorf("shared walk %v landed on a dedicated node", got)
		}
	}

	// Spill: rf beyond the shared pool falls back onto dedicated nodes
	// rather than shrinking the replica set.
	got = ring.appendBiasedAt(got[:0], hashString(key), 6, dedicated, false)
	if len(got) != 6 {
		t.Errorf("spill walk returned %d replicas, want 6", len(got))
	}

	// Empty set: bit-for-bit the plain walk.
	plain := ring.AppendReplicasFor(nil, key, 3)
	biased := ring.appendBiasedAt(nil, hashString(key), 3, nil, false)
	for i := range plain {
		if plain[i] != biased[i] {
			t.Fatalf("empty-set biased walk %v != plain walk %v", biased, plain)
		}
	}
}

// TestStorePinClass pins the store-level placement lifecycle: pinning tags
// nodes and steers the pinned tenant's replica sets and coordinators onto
// the dedicated pool, unpinning restores the plain paths, and a second pin
// claiming already-dedicated nodes (or re-pinning the same class) is
// refused.
func TestStorePinClass(t *testing.T) {
	rig := newBenchRig(t, 5)
	st := rig.store
	st.RegisterTenants(2)

	plainReplicas := append([]cluster.NodeID(nil), st.appendReplicasTenant(1, rig.ids[0])...)

	nodes := st.cluster.AvailableNodes()
	dedicated := []cluster.NodeID{nodes[0].ID(), nodes[1].ID(), nodes[2].ID()}
	if err := st.PinClass("gold", []TenantID{1}, dedicated); err != nil {
		t.Fatalf("PinClass: %v", err)
	}
	if err := st.PinClass("silver", []TenantID{2}, dedicated); err == nil {
		t.Error("PinClass accepted nodes already dedicated to another class")
	}
	if err := st.PinClass("gold", []TenantID{1}, []cluster.NodeID{nodes[3].ID()}); err == nil {
		t.Error("PinClass accepted an already-pinned class")
	}
	if st.PinnedClass() != "gold" {
		t.Errorf("PinnedClass = %q", st.PinnedClass())
	}
	for _, id := range dedicated {
		n, _ := st.cluster.Node(id)
		if n.Class() != "gold" {
			t.Errorf("dedicated node %v not tagged (class=%q)", id, n.Class())
		}
	}

	// The pinned tenant's replica set is anchored on the dedicated pool.
	reps := st.appendReplicasTenant(1, rig.ids[0])
	for _, id := range reps {
		if !slices.Contains(dedicated, id) {
			t.Errorf("pinned tenant replica %v outside the dedicated pool %v", id, dedicated)
		}
	}
	// The other tenant's set leads with the shared pool (2 shared nodes,
	// rf=3: two shared then one spill).
	reps = st.appendReplicasTenant(2, rig.ids[0])
	if slices.Contains(dedicated, reps[0]) || slices.Contains(dedicated, reps[1]) {
		t.Errorf("unpinned tenant set %v does not lead with the shared pool", reps)
	}

	// Coordinators are steered the same way.
	for i := 0; i < 20; i++ {
		if c, ok := st.pickCoordinatorTenant(1); !ok || !slices.Contains(dedicated, c.ID()) {
			t.Fatalf("pinned tenant coordinator %v outside the dedicated pool", c.ID())
		}
		if c, ok := st.pickCoordinatorTenant(2); !ok || slices.Contains(dedicated, c.ID()) {
			t.Fatalf("unpinned tenant coordinator %v inside the dedicated pool", c.ID())
		}
	}

	if err := st.UnpinClass(); err != nil {
		t.Fatalf("UnpinClass: %v", err)
	}
	if err := st.UnpinClass(); err == nil {
		t.Error("UnpinClass accepted with nothing pinned")
	}
	for _, id := range dedicated {
		n, _ := st.cluster.Node(id)
		if n.Class() != "" {
			t.Errorf("node %v still tagged after unpin", id)
		}
	}
	after := st.appendReplicasTenant(1, rig.ids[0])
	for i := range plainReplicas {
		if after[i] != plainReplicas[i] {
			t.Fatalf("replica set after unpin %v != original %v", after, plainReplicas)
		}
	}
}

// TestPlacementOpsAllocationFree pins that the class-aware selection paths
// add no allocations to the operation hot path: a full write and read under
// an active placement stays within the same bounds the plain path is held
// to.
func TestPlacementOpsAllocationFree(t *testing.T) {
	rig := newBenchRig(t, 5)
	st := rig.store
	st.RegisterTenants(1)
	nodes := st.cluster.AvailableNodes()
	if err := st.PinClass("gold", []TenantID{1}, []cluster.NodeID{nodes[0].ID(), nodes[1].ID(), nodes[2].ID()}); err != nil {
		t.Fatalf("PinClass: %v", err)
	}

	fired := 0
	cb := func(Result) { fired++ }
	issued := 0
	for ; issued < 128; issued++ {
		st.IssueAs(true, 1, rig.ids[issued%len(rig.keys)], 0, cb)
		rig.settle(t, &fired, issued+1)
	}

	avg := testing.AllocsPerRun(300, func() {
		issued++
		st.IssueAs(true, 1, rig.ids[issued%len(rig.keys)], 0, cb)
		rig.settle(t, &fired, issued)
	})
	if avg > maxWriteAllocs {
		t.Errorf("pinned write path allocates %.1f objects per op, want <= %d", avg, maxWriteAllocs)
	}
	avg = testing.AllocsPerRun(300, func() {
		issued++
		st.IssueAs(false, 1, rig.ids[issued%len(rig.keys)], 0, cb)
		rig.settle(t, &fired, issued)
	})
	if avg > maxReadAllocs {
		t.Errorf("pinned read path allocates %.1f objects per op, want <= %d", avg, maxReadAllocs)
	}

	// The biased selection helpers themselves are allocation-free with
	// warmed scratch buffers.
	coord := nodes[0].ID()
	avg = testing.AllocsPerRun(300, func() {
		replicas := st.appendReplicasTenant(1, rig.ids[0])
		st.partitionReplicas(coord, replicas)
		st.pickCoordinatorTenant(1)
	})
	if avg != 0 {
		t.Errorf("placement selection allocates %.1f objects per op, want 0", avg)
	}
}

// TestStoreMultiPinClass pins the multi-class placement semantics: pinning a
// second class adds a second dedicated pool instead of displacing the first,
// each class's tenants are steered onto their own pool, unpinned tenants are
// steered away from the union, and unpinning peels placements back one at a
// time (most recent first) without disturbing the older ones.
func TestStoreMultiPinClass(t *testing.T) {
	rig := newBenchRig(t, 7)
	st := rig.store
	st.RegisterTenants(3)

	nodes := st.cluster.AvailableNodes()
	goldPool := []cluster.NodeID{nodes[0].ID(), nodes[1].ID()}
	silverPool := []cluster.NodeID{nodes[2].ID(), nodes[3].ID()}

	if err := st.PinClass("gold", []TenantID{1}, goldPool); err != nil {
		t.Fatalf("PinClass(gold): %v", err)
	}
	if err := st.PinClass("silver", []TenantID{2}, silverPool); err != nil {
		t.Fatalf("PinClass(silver) displaced or refused while gold active: %v", err)
	}
	if !st.ClassPinned("gold") || !st.ClassPinned("silver") {
		t.Fatalf("ClassPinned gold=%v silver=%v, want both true",
			st.ClassPinned("gold"), st.ClassPinned("silver"))
	}
	for _, id := range goldPool {
		n, _ := st.cluster.Node(id)
		if n.Class() != "gold" {
			t.Errorf("gold node %v lost its tag after the second pin (class=%q)", id, n.Class())
		}
	}
	union := st.PlacementNodes()
	for _, id := range append(append([]cluster.NodeID(nil), goldPool...), silverPool...) {
		if !slices.Contains(union, id) {
			t.Errorf("dedicated union %v is missing node %v", union, id)
		}
	}

	// Each pinned tenant's replica set leads with its own class's pool; the
	// unpinned tenant's set leads with the shared remainder.
	key := rig.ids[0]
	reps := st.appendReplicasTenant(1, key)
	if !slices.Contains(goldPool, reps[0]) || !slices.Contains(goldPool, reps[1]) {
		t.Errorf("gold tenant replicas %v do not lead with the gold pool %v", reps, goldPool)
	}
	reps = st.appendReplicasTenant(2, key)
	if !slices.Contains(silverPool, reps[0]) || !slices.Contains(silverPool, reps[1]) {
		t.Errorf("silver tenant replicas %v do not lead with the silver pool %v", reps, silverPool)
	}
	reps = st.appendReplicasTenant(3, key)
	for _, id := range reps {
		if slices.Contains(union, id) {
			t.Errorf("unpinned tenant replicas %v landed on dedicated node %v", reps, id)
		}
	}

	// Coordinators are steered the same way.
	for i := 0; i < 20; i++ {
		if c, ok := st.pickCoordinatorTenant(1); !ok || !slices.Contains(goldPool, c.ID()) {
			t.Fatalf("gold tenant coordinator %v outside the gold pool", c.ID())
		}
		if c, ok := st.pickCoordinatorTenant(2); !ok || !slices.Contains(silverPool, c.ID()) {
			t.Fatalf("silver tenant coordinator %v outside the silver pool", c.ID())
		}
		if c, ok := st.pickCoordinatorTenant(3); !ok || slices.Contains(union, c.ID()) {
			t.Fatalf("unpinned tenant coordinator %v inside a dedicated pool", c.ID())
		}
	}

	// Unpinning peels the most recent placement; the older one stays intact.
	if err := st.UnpinClass(); err != nil {
		t.Fatalf("UnpinClass: %v", err)
	}
	if st.ClassPinned("silver") {
		t.Error("silver still pinned after unpin")
	}
	if !st.ClassPinned("gold") {
		t.Error("gold placement lost when silver was unpinned")
	}
	reps = st.appendReplicasTenant(1, key)
	if !slices.Contains(goldPool, reps[0]) || !slices.Contains(goldPool, reps[1]) {
		t.Errorf("gold tenant replicas %v no longer biased after silver unpin", reps)
	}
	// The former silver tenant is unpinned now and biases away from gold.
	reps = st.appendReplicasTenant(2, key)
	if slices.Contains(goldPool, reps[0]) {
		t.Errorf("former silver tenant replicas %v lead with the gold pool", reps)
	}
	if err := st.UnpinClass(); err != nil {
		t.Fatalf("UnpinClass(gold): %v", err)
	}
	if err := st.UnpinClass(); err == nil {
		t.Error("UnpinClass accepted with nothing pinned")
	}
	for _, id := range union {
		n, _ := st.cluster.Node(id)
		if n.Class() != "" {
			t.Errorf("node %v still tagged after both unpins", id)
		}
	}
}
