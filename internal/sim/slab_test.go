package sim

import (
	"runtime"
	"testing"
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
	if got := mallocs(1024, func() { small.New() }); got > 2 {
		t.Errorf("1024 32-byte elements took %d blocks, want 2 (512 a block)", got)
	}
	var large Slab[[1024]byte]
	if got := mallocs(1024, func() { large.New() }); got > 16 {
		t.Errorf("1024 1-KiB elements took %d blocks, want 16 (64 a block)", got)
	}
}

// TestPoolIsLIFO pins the pool's contract: Get hands back the element Put
// last, as its user left it, and a zero fresh one only when the free list is
// empty; Live counts what is out.
func TestPoolIsLIFO(t *testing.T) {
	var p Pool[int]
	a, fresh := p.Get()
	b, _ := p.Get()
	if !fresh || *a != 0 || a == b || p.Live() != 2 {
		t.Fatalf("two fresh Gets: fresh=%v, *a=%d, distinct=%v, live=%d", fresh, *a, a != b, p.Live())
	}
	*a, *b = 1, 2
	p.Put(a)
	p.Put(b)
	if got, fresh := p.Get(); got != b || fresh || *got != 2 {
		t.Errorf("Get after Put(a), Put(b) returned %p (fresh=%v, %d), want b as left", got, fresh, *got)
	}
	if got, _ := p.Get(); got != a {
		t.Errorf("second Get returned %p, want a", got)
	}
	if c, fresh := p.Get(); !fresh || *c != 0 || p.Live() != 3 {
		t.Errorf("Get on an empty free list: fresh=%v, value %d, live %d", fresh, *c, p.Live())
	}
}
