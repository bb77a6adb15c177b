package workload

import (
	"math/rand"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// KeyChooser selects which key the next operation targets. Every built-in
// chooser draws from the canonical "key-<i>" namespace, whose key ids are the
// indices themselves: the ID forms are what the operation path uses, the name
// forms are for callers that want to look at a key.
type KeyChooser interface {
	// NextReadID returns the key for a read operation.
	NextReadID() store.KeyID
	// NextWriteID returns the key for a write operation.
	NextWriteID() store.KeyID
	// NextRead and NextWrite are the same draws, by name.
	NextRead() store.Key
	NextWrite() store.Key
}

// Slicer is implemented by key choosers that can confine themselves to a
// fixed window of the shared key namespace. Multi-tenant scenarios use it to
// carve a disjoint slice per tenant, so tenants never collide on keys
// whatever their individual distributions do — including append-style
// distributions whose keyspace would otherwise grow without bound.
type Slicer interface {
	// Slice confines every key the chooser picks to [base, base+size).
	Slice(base, size int)
}

// Slice confines c to the key window [base, base+size) when the chooser
// supports slicing; it reports whether the window was applied.
func Slice(c KeyChooser, base, size int) bool {
	if s, ok := c.(Slicer); ok && size > 0 && base >= 0 {
		s.Slice(base, size)
		return true
	}
	return false
}

// UniformKeys picks keys uniformly from a fixed keyspace.
type UniformKeys struct {
	n    int
	base int
	rng  *rand.Rand
}

// NewUniformKeys creates a uniform chooser over n keys.
func NewUniformKeys(n int, rng *rand.Rand) *UniformKeys {
	if n <= 0 {
		n = 1
	}
	return &UniformKeys{n: n, rng: rng}
}

// Slice implements Slicer.
func (u *UniformKeys) Slice(base, size int) {
	u.base = base
	if size < u.n {
		u.n = size
	}
}

// NextReadID implements KeyChooser.
func (u *UniformKeys) NextReadID() store.KeyID { return store.KeyID(u.base + u.rng.Intn(u.n)) }

// NextWriteID implements KeyChooser.
func (u *UniformKeys) NextWriteID() store.KeyID { return u.NextReadID() }

// NextRead implements KeyChooser.
func (u *UniformKeys) NextRead() store.Key { return keyName(u.NextReadID()) }

// NextWrite implements KeyChooser.
func (u *UniformKeys) NextWrite() store.Key { return keyName(u.NextWriteID()) }

// ZipfianKeys picks keys with a zipfian popularity distribution, as YCSB
// does: a small set of hot keys receives most of the traffic.
type ZipfianKeys struct {
	n    int
	base int
	zipf *sim.Zipf
}

// NewZipfianKeys creates a zipfian chooser over n keys with exponent s
// (YCSB's default skew corresponds to s≈1.3 here).
func NewZipfianKeys(n int, s float64, rng *rand.Rand) *ZipfianKeys {
	if n <= 0 {
		n = 1
	}
	return &ZipfianKeys{n: n, zipf: sim.NewZipf(rng, s, uint64(n))}
}

// Slice implements Slicer. The zipf generator already draws from [0, n), so
// only the base moves; a size below n clamps by wrapping the tail indices.
func (z *ZipfianKeys) Slice(base, size int) {
	z.base = base
	if size < z.n {
		z.n = size
	}
}

// NextReadID implements KeyChooser.
func (z *ZipfianKeys) NextReadID() store.KeyID { return store.KeyID(z.base + int(z.zipf.Next())%z.n) }

// NextWriteID implements KeyChooser.
func (z *ZipfianKeys) NextWriteID() store.KeyID { return z.NextReadID() }

// NextRead implements KeyChooser.
func (z *ZipfianKeys) NextRead() store.Key { return keyName(z.NextReadID()) }

// NextWrite implements KeyChooser.
func (z *ZipfianKeys) NextWrite() store.Key { return keyName(z.NextWriteID()) }

// LatestKeys models YCSB workload D: writes append new keys and reads are
// skewed towards the most recently inserted ones.
type LatestKeys struct {
	next int
	base int
	// bound, when positive, wraps the append sequence so a sliced chooser
	// stays inside its window: logical insert i lands on physical key
	// base + i%bound. Unsliced choosers keep the unbounded append-only
	// keyspace of YCSB workload D.
	bound int
	zipf  *sim.Zipf
	rng   *rand.Rand
}

// NewLatestKeys creates a latest-skewed chooser seeded with initial existing
// keys.
func NewLatestKeys(initial int, rng *rand.Rand) *LatestKeys {
	if initial <= 0 {
		initial = 1
	}
	return &LatestKeys{next: initial, zipf: sim.NewZipf(rng, 1.3, 1024), rng: rng}
}

// Slice implements Slicer. The append sequence keeps its "latest" recency
// shape but wraps physically inside the window, so a latest-distribution
// tenant can never write into a neighbouring tenant's slice.
func (l *LatestKeys) Slice(base, size int) {
	l.base = base
	l.bound = size
	if l.next > size {
		l.next = size
	}
}

// key maps a logical insert index onto the physical key, wrapping sliced
// choosers inside their window.
func (l *LatestKeys) key(idx int) store.KeyID {
	if l.bound > 0 {
		idx %= l.bound
	}
	return store.KeyID(l.base + idx)
}

// NextReadID implements KeyChooser: reads target recent keys.
func (l *LatestKeys) NextReadID() store.KeyID {
	offset := int(l.zipf.Next())
	idx := l.next - 1 - offset
	if idx < 0 {
		idx = 0
	}
	return l.key(idx)
}

// NextWriteID implements KeyChooser: each write inserts the next key.
func (l *LatestKeys) NextWriteID() store.KeyID {
	k := l.key(l.next)
	l.next++
	return k
}

// NextRead implements KeyChooser.
func (l *LatestKeys) NextRead() store.Key { return keyName(l.NextReadID()) }

// NextWrite implements KeyChooser.
func (l *LatestKeys) NextWrite() store.Key { return keyName(l.NextWriteID()) }

// KeyIndex reports the index i of a key in the canonical "key-<i>" namespace
// every built-in chooser draws from. Keys outside the namespace (including
// non-canonical spellings like "key-007") report ok=false; trace recording
// falls back to carrying such keys verbatim.
func KeyIndex(k store.Key) (int, bool) { return store.CanonicalIndex(k) }

// keyName spells out the canonical name of a chooser's key. The operation
// path carries ids; this is for callers that asked for a name.
func keyName(id store.KeyID) store.Key { return store.CanonicalKey(int(id)) }
