package sim

import "unsafe"

// A Slab block holds about slabBytes of elements, and never fewer than
// slabMin of them.
const (
	slabBytes = 16 << 10
	slabMin   = 64
)

// Slab is the allocator behind a free list: New hands out the next
// never-used element of a block, allocating a new block only when the last
// one is spent. A list that has to refill therefore costs one allocation per
// block instead of one per element, and never copies what it already handed
// out. Blocks are sized by bytes, so a small element comes hundreds to a
// block and a large one at least slabMin. Elements do not come back to the
// Slab; recycling stays with the free list in front of it (see Pool), which
// tries its own elements first.
type Slab[T any] struct{ block []T }

// New returns a zero T that has never been handed out before.
func (s *Slab[T]) New() *T {
	if len(s.block) == 0 {
		var zero T
		s.block = make([]T, max(slabBytes/max(int(unsafe.Sizeof(zero)), 1), slabMin))
	}
	p := &s.block[0]
	s.block = s.block[1:]
	return p
}

// Pool is a LIFO free list in front of a Slab: Get hands out the element Put
// back last, and a never-used one from the slab when the list is empty.
type Pool[T any] struct {
	free []*T
	slab Slab[T]
	made int
}

// Get returns an element. A recycled one comes as its last user left it, so
// whatever the caller bound once (a handler, a back pointer) is still there;
// fresh reports a zero element that has never been handed out.
func (p *Pool[T]) Get() (x *T, fresh bool) {
	if n := len(p.free); n > 0 {
		x, p.free = p.free[n-1], p.free[:n-1]
		return x, false
	}
	p.made++
	return p.slab.New(), true
}

// Put gives an element back; the next Get may hand it out again.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Live returns how many elements are out of the pool: handed out and not
// put back.
func (p *Pool[T]) Live() int { return p.made - len(p.free) }
