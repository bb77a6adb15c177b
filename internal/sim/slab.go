package sim

// slabSize is how many elements one Slab block holds.
const slabSize = 64

// Slab is the allocator behind a free list: New hands out the next
// never-used element of a block of slabSize, allocating a new block only
// when the last one is spent. A list that has to refill therefore costs one
// allocation per slabSize elements instead of one per element, and never
// copies what it already handed out. Elements do not come back to the Slab;
// recycling stays with the free list in front of it, which tries its own
// elements first.
type Slab[T any] struct{ block []T }

// New returns a zero T that has never been handed out before.
func (s *Slab[T]) New() *T {
	if len(s.block) == 0 {
		s.block = make([]T, slabSize)
	}
	p := &s.block[0]
	s.block = s.block[1:]
	return p
}
