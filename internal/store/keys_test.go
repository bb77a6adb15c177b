package store

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"unsafe"

	"autonosql/internal/memtest"
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

// TestColumnGrowsOnFirstTouch pins the growth rule of per-key columns at page
// granularity: reading a slot never reached is zero and allocates nothing, a
// touch allocates exactly the page that holds it, on the side it is on, and
// all() yields every slot of every touched page with its id, dense ids
// ascending and then interned ids in interning order.
func TestColumnGrowsOnFirstTouch(t *testing.T) {
	var c column[version]
	if avg := testing.AllocsPerRun(10, func() { c.get(500); c.get(-3) }); avg != 0 || len(c.dense)+len(c.interned) != 0 {
		t.Fatalf("reading an untouched column allocated %.0f objects and reached %d + %d pages", avg, len(c.dense), len(c.interned))
	}
	const pageSize = 1 << pageBits
	const far KeyID = 2*pageSize + 7 // on the third dense page
	*c.at(500) = 7
	*c.at(-3) = 9
	*c.at(far) = 1
	if len(c.dense) != 3 || c.dense[0] == nil || c.dense[1] != nil || c.dense[2] == nil || len(c.interned) != 1 || c.interned[0] == nil {
		t.Fatalf("touching ids 500, %d and -3 reached dense pages %v and interned pages %v, want pages 0 and 2, and 0", far, c.dense, c.interned)
	}
	if avg := testing.AllocsPerRun(10, func() { *c.at(501) = 2; *c.at(-4) = 2 }); avg != 0 {
		t.Errorf("touching a slot on a touched page allocates %.0f objects, want 0", avg)
	}
	*c.at(501), *c.at(-4) = 0, 0
	// A fresh column per run whose directory already reaches far's page.
	fresh, n := make([]column[version], 11), 0
	for i := range fresh {
		fresh[i].dense = make([]*page[version], 3)
	}
	if avg := testing.AllocsPerRun(10, func() { *fresh[n].at(far) = 1; n++ }); avg != 1 {
		t.Errorf("touching a new page allocates %.0f objects, want 1", avg)
	}
	sum, slots, last := version(0), 0, KeyID(-1)
	for id, v := range c.all() {
		if v != c.get(id) {
			t.Errorf("all() yields %d for id %d, get says %d", v, id, c.get(id))
		}
		if slots > 0 && !(last >= 0 && (id > last || id == -1)) && !(last < 0 && id == last-1) {
			t.Errorf("all() yields id %d after %d", id, last)
		}
		sum, slots, last = sum+v, slots+1, id
	}
	if want := 3 * pageSize; sum != 17 || slots != want {
		t.Errorf("all() walked %d slots summing %d, want %d and 17", slots, sum, want)
	}
}

// TestColumnGrowthNoCopy pins that a column reaching a 200 000-key uniform
// keyspace allocates its touched pages and its page directory, nothing else:
// no slot is copied as the column grows.
func TestColumnGrowthNoCopy(t *testing.T) {
	const keys = 200_000
	ids := rand.New(rand.NewPCG(1, 2)).Perm(keys)
	// Each reading fills a fresh column.
	var c column[version]
	got, _ := memtest.Growth(func(measure func(func())) {
		c = column[version]{}
		measure(func() {
			for _, id := range ids {
				*c.at(KeyID(id)) = 1
			}
		})
	})
	pages := 0
	for _, pg := range c.dense {
		if pg != nil {
			pages++
		}
	}
	// The directory grows by append, so everything it ever allocated is at
	// most twice its final capacity; 4 KiB covers the runtime's own noise.
	limit := uint64(pages)*uint64(unsafe.Sizeof(page[version]{})) + 2*uint64(cap(c.dense))*8 + 4096
	if got > limit {
		t.Errorf("touching %d uniform ids allocated %d B, want at most %d (%d pages + directory)", keys, got, limit, pages)
	}
	if want := (keys + 1<<pageBits - 1) >> pageBits; pages != want {
		t.Errorf("%d pages touched, want %d", pages, want)
	}
}

// FuzzColumn plays scripts of at / get / all over dense and interned ids
// against a map: every get and every yielded slot agrees with the map, all()
// yields each set id exactly once, in order, and no slot outside a touched
// page.
func FuzzColumn(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 0, 0, 255, 255, 1, 255, 255, 2, 0, 0})
	f.Add([]byte{0, 4, 0, 0, 128, 0, 1, 4, 1, 1, 127, 255, 2, 0, 0, 0, 3, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		var c column[uint32]
		ref := map[KeyID]uint32{}
		for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
			id := KeyID(int16(uint16(script[1])<<8 | uint16(script[2])))
			switch script[0] % 3 {
			case 0:
				*c.at(id) = uint32(step + 1)
				ref[id] = uint32(step + 1)
			case 1:
				if got := c.get(id); got != ref[id] {
					t.Fatalf("step %d: get(%d) = %d, want %d", step, id, got, ref[id])
				}
			case 2:
				seen, slots, prev := 0, 0, KeyID(0)
				for got, v := range c.all() {
					if seen > 0 && !(prev >= 0 && (got > prev || got < 0)) && !(prev < 0 && got < prev) {
						t.Fatalf("step %d: all() yields %d after %d", step, got, prev)
					}
					if v != ref[got] {
						t.Fatalf("step %d: all() yields %d for id %d, want %d", step, v, got, ref[got])
					}
					if v != 0 {
						seen++
					}
					slots, prev = slots+1, got
				}
				pages := map[KeyID]bool{}
				for id := range ref {
					pages[id>>pageBits] = true // negative for interned pages
				}
				if seen != len(ref) || slots != len(pages)<<pageBits {
					t.Fatalf("step %d: all() yields %d set slots of %d, want %d of %d", step, seen, slots, len(ref), len(pages)<<pageBits)
				}
			}
		}
	})
}
