package store

import (
	"fmt"
	"testing"
)

// keyNames are the spellings the key-id tests walk: canonical indices on
// both sides of the old 16 384-entry name table and of denseKeys, and names
// outside the canonical namespace, including a non-canonical spelling of one.
var keyNames = []Key{
	"key-0", "key-16383", "key-16384", "key-199999",
	Key(fmt.Sprintf("key-%d", denseKeys-1)), Key(fmt.Sprintf("key-%d", denseKeys)), Key(fmt.Sprintf("key-%d", denseKeys+12345)),
	"probe-7", "__probe-1", "key-007", "key-+7", "key-", "user:42/cart", "",
}

// TestRingTokenMatchesNameHash pins that a key's memoised ring token is
// hashString over the bytes of its name — by name, by id, and again from the
// memo — so placing keys by id puts every key where placing them by name did.
func TestRingTokenMatchesNameHash(t *testing.T) {
	rig := newBenchRig(t, 5)
	s := rig.store
	for _, name := range keyNames {
		want := hashString(name)
		id := s.keys.local(s.KeyID(name))
		for pass := 0; pass < 2; pass++ {
			if got := s.token(id); got != want {
				t.Errorf("token(%q) pass %d = %#x, want hashString = %#x", name, pass, got, want)
			}
		}
		if got, want := s.appendReplicas(id), s.ring.AppendReplicasFor(nil, name, s.rf); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("replicas of %q by id = %v, by name = %v", name, got, want)
		}
	}
	// The by-id entry reaches the same place without ever seeing the name.
	for _, i := range []int{0, 16383, 16384, 199999, denseKeys, denseKeys + 12345} {
		name := Key(fmt.Sprintf("key-%d", i))
		if got, want := s.token(s.keys.local(KeyID(i))), hashString(name); got != want {
			t.Errorf("token(KeyID(%d)) = %#x, want hashString(%q) = %#x", i, got, name, want)
		}
	}
}

// TestKeyIDsRoundTripAndNeverAlias pins the id scheme: canonical names below
// denseKeys resolve to their index, everything else to a negative interned id,
// names and ids round-trip, and no two distinct names share an id.
func TestKeyIDsRoundTripAndNeverAlias(t *testing.T) {
	var keys Keys
	seen := map[KeyID]Key{}
	for _, name := range keyNames {
		id := keys.ID(name)
		if other, dup := seen[id]; dup {
			t.Errorf("%q and %q share id %d", name, other, id)
		}
		seen[id] = name
		if again := keys.ID(name); again != id {
			t.Errorf("ID(%q) = %d, then %d", name, id, again)
		}
		if back := keys.Name(id); back != name {
			t.Errorf("Name(ID(%q)) = %q", name, back)
		}
		i, canonical := CanonicalIndex(name)
		if dense := canonical && i < denseKeys; dense != (id >= 0) || (dense && int(id) != i) {
			t.Errorf("ID(%q) = %d, canonical index (%d, %v)", name, id, i, canonical)
		}
		if local := keys.local(id); local != id {
			t.Errorf("local(ID(%q)) moved %d to %d", name, id, local)
		}
	}
	// A canonical index too large to be dense is the same key whether it
	// arrives as an id or as a name.
	big := KeyID(denseKeys + 12345)
	if got, want := keys.local(big), keys.ID(Key(fmt.Sprintf("key-%d", big))); got != want || got >= 0 {
		t.Errorf("local(%d) = %d, by name %d", big, got, want)
	}
	if got := keys.Name(big); got != Key(fmt.Sprintf("key-%d", big)) {
		t.Errorf("Name(%d) = %q", big, got)
	}
	if avg := testing.AllocsPerRun(100, func() { keys.local(big) }); avg != 0 {
		t.Errorf("resolving an interned canonical index allocates %.0f objects, want 0", avg)
	}
	if got := keys.Name(-1000); got != "" {
		t.Errorf("an interned id nobody was given is named %q", got)
	}
}

// TestKeyCountsCountKeysNotSlots pins that KeyCount and ReplicaKeyCount still
// count distinct keys now that per-key state lives in slices: one write at a
// high index and one interned key make two keys, not 200 000 and not one.
func TestKeyCountsCountKeysNotSlots(t *testing.T) {
	rig := newBenchRig(t, 3)
	fired := 0
	cb := func(Result) { fired++ }
	rig.store.WriteID(199999, cb)
	rig.store.Write("probe-1", cb)
	rig.store.Write("key-199999", cb) // the same key again, by name
	rig.store.ReadID(123456, cb)      // a read creates nothing
	rig.settle(t, &fired, 4)
	if err := rig.engine.Run(rig.engine.Now() + 1e9); err != nil { // let the last replicas apply
		t.Fatalf("Run: %v", err)
	}
	if got := rig.store.KeyCount(); got != 2 {
		t.Errorf("KeyCount = %d, want 2", got)
	}
	for _, n := range rig.store.cluster.AvailableNodes() {
		if got := rig.store.ReplicaKeyCount(n.ID()); got != 2 {
			t.Errorf("ReplicaKeyCount(%v) = %d, want 2 (RF 3 on 3 nodes)", n.ID(), got)
		}
	}
	if got := rig.store.ReplicaKeyCount(99); got != 0 {
		t.Errorf("ReplicaKeyCount of an unknown node = %d", got)
	}
}

// TestColumnGrowsOnFirstTouch pins the growth rule of per-key columns: a read
// of a slot never reached is zero and grows nothing, a touch grows exactly the
// side it is on, and every reached slot is iterated with its id.
func TestColumnGrowsOnFirstTouch(t *testing.T) {
	var c column[version]
	if c.get(500) != 0 || c.get(-3) != 0 || len(c.dense)+len(c.interned) != 0 {
		t.Fatal("reading an untouched column grew it")
	}
	*c.at(500) = 7
	*c.at(-3) = 9
	*c.at(2) = 1
	if len(c.dense) != 501 || len(c.interned) != 3 {
		t.Fatalf("column sized %d dense + %d interned, want 501 + 3", len(c.dense), len(c.interned))
	}
	sum, slots := version(0), 0
	for id, v := range c.all() {
		if v != c.get(id) {
			t.Errorf("all() yields %d for id %d, get says %d", v, id, c.get(id))
		}
		sum += v
		slots++
	}
	if sum != 17 || slots != 504 {
		t.Errorf("all() walked %d slots summing %d, want 504 and 17", slots, sum)
	}
}
