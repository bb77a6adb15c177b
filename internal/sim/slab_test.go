package sim

import (
	"runtime"
	"testing"

	"autonosql/internal/memtest"
)

// TestSlabSizesBlocksByBytes pins the block size: about 16 KiB of elements,
// so a small record comes hundreds to a block, and never fewer than 64 of a
// large one.
func TestSlabSizesBlocksByBytes(t *testing.T) {
	mallocs := func(news int, fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < news; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var small Slab[[32]byte]
	if got := mallocs(1022, func() { small.New() }); got > 2 {
		t.Errorf("1022 32-byte elements took %d blocks, want 2 (511 a block)", got)
	}
	var large Slab[[1024]byte]
	if got := mallocs(1024, func() { large.New() }); got > 16 {
		t.Errorf("1024 1-KiB elements took %d blocks, want 16 (64 a block)", got)
	}
}

// rec is a pooled test record: a value, its link and padding to 32 bytes.
type rec struct {
	v    int
	next *rec
	_    [2]uint64
}

func (r *rec) Link() **rec { return &r.next }

// get takes an element the way the pool's users do: a recycled one if there
// is one, else a never-used one.
func get(p *Pool[rec, *rec]) *rec {
	if x := p.Get(); x != nil {
		return x
	}
	return p.New()
}

// TestPoolIsLIFO pins the pool's contract: Get hands back the element Put
// last, as its user left it but for the link, and nil when the free list is
// empty, where New hands out a zero never-used one; Live counts what is out.
func TestPoolIsLIFO(t *testing.T) {
	var p Pool[rec, *rec]
	if got := p.Get(); got != nil {
		t.Fatalf("Get on a new pool returned %p, want nil", got)
	}
	a, b := p.New(), p.New()
	if a.v != 0 || a == b || p.Live() != 2 {
		t.Fatalf("two New calls: a.v=%d, distinct=%v, live=%d", a.v, a != b, p.Live())
	}
	a.v, b.v = 1, 2
	p.Put(a)
	p.Put(b)
	if p.Live() != 0 {
		t.Errorf("live %d after putting both back, want 0", p.Live())
	}
	if got := p.Get(); got != b || got.v != 2 || got.next != nil {
		t.Errorf("Get after Put(a), Put(b) returned %p (%+v), want b as left, unlinked", got, got)
	}
	if got := p.Get(); got != a || got.next != nil {
		t.Errorf("second Get returned %p (link %p), want a, unlinked", got, got.next)
	}
	if got := p.Get(); got != nil || p.Live() != 2 {
		t.Errorf("Get on an empty free list returned %p, live %d; want nil, 2", got, p.Live())
	}
}

// stray is a record whose Link points outside it.
type stray struct{ v int }

var strayLink *stray

func (*stray) Link() **stray { return &strayLink }

// TestPoolRejectsLinkOutsideRecord pins that the pool refuses a Link that
// is not a field of its receiver, since it reaches the link by offset.
func TestPoolRejectsLinkOutsideRecord(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get of a record whose link lies outside it did not panic")
		}
	}()
	var p Pool[stray, *stray]
	p.New()
}

// TestPoolGrowthBytes pins that the free list costs nothing of its own: it is
// threaded through the records, so taking 50 000 records, putting them all
// back and taking them again allocates only the slab blocks the first pass
// took, however many records come back at once.
func TestPoolGrowthBytes(t *testing.T) {
	const n = 50_000
	perBlock := slabLen[rec]()
	blocks := uint64((n + perBlock - 1) / perBlock)
	// Each reading fills a fresh pool.
	recs := make([]*rec, n)
	bytes, mallocs := memtest.Growth(func(measure func(func())) {
		var p Pool[rec, *rec]
		measure(func() {
			for i := range recs {
				recs[i] = get(&p)
			}
			for _, r := range recs {
				p.Put(r)
			}
			for i := range recs {
				recs[i] = get(&p)
			}
		})
		if p.Live() != n {
			t.Fatalf("live %d after the last pass, want %d", p.Live(), n)
		}
	})
	t.Logf("%d takes, puts and takes: %d B in %d allocations (%d blocks of %d records)", n, bytes, mallocs, blocks, perBlock)
	if mallocs > blocks || bytes > blocks*slabBytes {
		t.Errorf("allocated %d B in %d allocations, want at most the first pass's %d blocks (%d B)", bytes, mallocs, blocks, blocks*slabBytes)
	}
}
