package sim

import "unsafe"

// A Slab block holds about slabBytes of elements, and never fewer than
// slabMin of them. The runtime puts an 8-byte header (mallocHeader) in front
// of a small object with pointers above 512 bytes, so a block of exactly
// slabBytes of such elements would take the next size class up, 18 KiB; the
// header's room is left out of the elements instead.
const (
	slabBytes    = 16 << 10
	slabMin      = 64
	mallocHeader = 8
)

// slabLen is the number of elements in a block of T.
func slabLen[T any]() int {
	var zero T
	return max((slabBytes-mallocHeader)/max(int(unsafe.Sizeof(zero)), 1), slabMin)
}

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
		s.block = make([]T, slabLen[T]())
	}
	p := &s.block[0]
	s.block = s.block[1:]
	return p
}

// Linked is what a pooled record offers its Pool: P is the record's pointer
// type, and Link returns the address of the record's link field, a *T field
// of the record itself. The pool threads its free list through that field,
// so recycling allocates nothing however many records come back at once.
// While a record is out of the pool the link is its holder's to use: the
// engine files events in its queue through it, and the store queues hints
// in their replica's backlog.
type Linked[T any] interface {
	*T
	Link() **T
}

// Pool is a LIFO free list in front of a Slab: Get hands out the element Put
// back last, and New a never-used one from the slab, for when the list is
// empty. They are two calls so that Get, which a steady state makes millions
// of, inlines.
type Pool[T any, P Linked[T]] struct {
	free *T
	// off is the link field's offset in a T, read from Link by New.
	// Recycling then reaches the link directly: a call to Link through a
	// type parameter is an indirect call, and the engine makes two for
	// every event it fires.
	off  uintptr
	slab Slab[T]
	live int
}

// link returns the address of x's link field.
func (p *Pool[T, P]) link(x *T) **T { return (**T)(unsafe.Add(unsafe.Pointer(x), p.off)) }

// Get returns the element Put back last, with its link cleared, or nil when
// the free list is empty. The element otherwise comes as its last user left
// it, so whatever the caller bound once (a handler, a back pointer) is still
// there.
func (p *Pool[T, P]) Get() *T {
	x := p.free
	if x != nil {
		link := p.link(x)
		p.free, *link = *link, nil
		p.live++
	}
	return x
}

// New returns a zero element that has never been handed out, for when Get
// finds the free list empty.
func (p *Pool[T, P]) New() *T {
	x := p.slab.New()
	off := uintptr(unsafe.Pointer(P(x).Link())) - uintptr(unsafe.Pointer(x))
	if off > unsafe.Sizeof(*x)-unsafe.Sizeof(x) {
		panic("sim: Link must return a field of its receiver")
	}
	p.off = off
	p.live++
	return x
}

// Put gives an element back; the next Get may hand it out again.
func (p *Pool[T, P]) Put(x *T) {
	p.live--
	link := p.link(x)
	*link, p.free = p.free, x
}

// Live returns how many elements are out of the pool: handed out and not
// put back.
func (p *Pool[T, P]) Live() int { return p.live }
