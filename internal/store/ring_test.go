package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"autonosql/internal/cluster"
)

func ringWithNodes(n int) *Ring {
	r := NewRing(0)
	for i := 1; i <= n; i++ {
		r.Add(cluster.NodeID(i))
	}
	return r
}

func TestRingMembership(t *testing.T) {
	r := NewRing(0)
	if r.Size() != 0 {
		t.Fatal("new ring should be empty")
	}
	r.Add(1)
	r.Add(2)
	r.Add(1) // duplicate is a no-op
	if r.Size() != 2 {
		t.Fatalf("Size = %d, want 2", r.Size())
	}
	if !r.Contains(1) || r.Contains(3) {
		t.Fatal("Contains gave wrong answers")
	}
	members := r.Members()
	if len(members) != 2 || members[0] != 1 || members[1] != 2 {
		t.Fatalf("Members = %v", members)
	}
	r.Remove(1)
	r.Remove(42) // removing non-member is a no-op
	if r.Size() != 1 || r.Contains(1) {
		t.Fatal("Remove did not work")
	}
}

func TestReplicasForDistinctAndStable(t *testing.T) {
	r := ringWithNodes(5)
	key := Key("user:42")
	reps := r.ReplicasFor(key, 3)
	if len(reps) != 3 {
		t.Fatalf("got %d replicas, want 3", len(reps))
	}
	seen := map[cluster.NodeID]bool{}
	for _, id := range reps {
		if seen[id] {
			t.Fatalf("duplicate replica %v in %v", id, reps)
		}
		seen[id] = true
	}
	again := r.ReplicasFor(key, 3)
	for i := range reps {
		if reps[i] != again[i] {
			t.Fatalf("placement not deterministic: %v vs %v", reps, again)
		}
	}
}

func TestReplicasForClampsToMembers(t *testing.T) {
	r := ringWithNodes(2)
	reps := r.ReplicasFor("k", 5)
	if len(reps) != 2 {
		t.Fatalf("got %d replicas, want 2 (cluster size)", len(reps))
	}
	if got := r.ReplicasFor("k", 0); got != nil {
		t.Fatalf("rf=0 should return nil, got %v", got)
	}
	empty := NewRing(0)
	if got := empty.ReplicasFor("k", 3); got != nil {
		t.Fatalf("empty ring should return nil, got %v", got)
	}
}

func TestPrimary(t *testing.T) {
	r := ringWithNodes(3)
	p, ok := r.Primary("some-key")
	if !ok || p < 1 || p > 3 {
		t.Fatalf("Primary = %v, %v", p, ok)
	}
	empty := NewRing(0)
	if _, ok := empty.Primary("k"); ok {
		t.Fatal("Primary on empty ring should report false")
	}
}

func TestRingBalance(t *testing.T) {
	r := ringWithNodes(4)
	counts := map[cluster.NodeID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		p, _ := r.Primary(Key(fmt.Sprintf("key-%d", i)))
		counts[p]++
	}
	for id, c := range counts {
		share := float64(c) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %v owns %.1f%% of keys, expected roughly 25%%", id, share*100)
		}
	}
}

func TestRingMinimalDisruptionOnRemove(t *testing.T) {
	r := ringWithNodes(5)
	const keys = 5000
	before := make(map[Key]cluster.NodeID, keys)
	for i := 0; i < keys; i++ {
		k := Key(fmt.Sprintf("key-%d", i))
		before[k], _ = r.Primary(k)
	}
	r.Remove(3)
	moved := 0
	for k, prev := range before {
		now, _ := r.Primary(k)
		if now != prev {
			moved++
			if prev != 3 {
				// Keys not owned by the removed node must not move.
				t.Fatalf("key %q moved from %v to %v although %v stayed", k, prev, now, prev)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved after removing a node")
	}
	if float64(moved)/keys > 0.40 {
		t.Fatalf("too many keys moved: %d/%d", moved, keys)
	}
}

func TestReplicasForPropertyPreferenceListPrefix(t *testing.T) {
	// Property: the rf-1 preference list is always a prefix of the rf list.
	rng := rand.New(rand.NewSource(4))
	r := ringWithNodes(6)
	f := func(raw uint32, rfRaw uint8) bool {
		key := Key(fmt.Sprintf("k-%d", raw))
		rf := int(rfRaw%5) + 2
		long := r.ReplicasFor(key, rf)
		short := r.ReplicasFor(key, rf-1)
		if len(short) > len(long) {
			return false
		}
		for i := range short {
			if short[i] != long[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatalf("prefix property failed: %v", err)
	}
}

func TestReplicaStateLastWriterWins(t *testing.T) {
	rs := newReplicaState(1)
	if rs.read(-1) != 0 {
		t.Fatal("unseen key should read as version 0")
	}
	rs.apply(-1, 5)
	rs.apply(-1, 3) // stale apply must not regress
	if got := rs.read(-1); got != 5 {
		t.Fatalf("read = %d, want 5", got)
	}
	rs.apply(-1, 9)
	if got := rs.read(-1); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
	if rs.keys() != 1 {
		t.Fatalf("keys = %d, want 1", rs.keys())
	}
}
