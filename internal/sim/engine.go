package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Handler is a callback executed when an event fires. The engine passes the
// current virtual time to the handler.
type Handler func(now time.Duration)

// ArgHandler is a Handler with a pre-bound argument. The argument rides
// inside the event and is handed back when it fires, so hot paths that
// schedule one event per item (for example a coordinator fanning a write out
// to each replica) can use a single package-level function instead of
// allocating a fresh closure per item. Passing a pointer as arg does not
// allocate.
type ArgHandler func(arg any, now time.Duration)

// callHandler fires a Handler event: After and AfterAt box the Handler as
// the event's argument (a func value is pointer-shaped, so boxing it
// allocates nothing), so every event carries an ArgHandler.
func callHandler(arg any, now time.Duration) { arg.(Handler)(now) }

// event is a scheduled callback inside the simulation.
type event struct {
	at      time.Duration
	seq     uint64
	handler ArgHandler
	arg     any
	// pooled marks events scheduled through After/AfterArg and their
	// absolute-time variants: no reference to them ever escapes the engine,
	// so they are recycled after firing. A Ticker's event is its own.
	pooled bool
	// next links a pending event into its queue bucket and a recycled one
	// into the engine's free list.
	next *event
}

// Link returns the event's link, for the engine's Pool.
func (ev *event) Link() **event { return &ev.next }

// never is a horizon no event lies beyond.
const never = time.Duration(math.MaxInt64)

var (
	// ErrPastEvent is returned when scheduling an event before the current
	// virtual time.
	ErrPastEvent = errors.New("sim: cannot schedule event in the past")
	// ErrRunning is returned when Run is invoked re-entrantly.
	ErrRunning = errors.New("sim: engine is already running")
)

// Engine is a discrete-event simulation engine with a virtual clock.
//
// The zero value is not usable; construct engines with NewEngine.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	running bool
	// processed counts events that have fired.
	processed uint64
	// pool recycles events: pooled events return to it after firing, so a
	// steady-state simulation schedules millions of events with a handful of
	// allocations.
	pool Pool[event, *event]
	// halted stops the current Run after the in-flight event completes. It is
	// only ever set from a handler firing on this engine (same goroutine), so
	// it needs no synchronisation.
	halted bool
	// Self-profiling counters: free-list effectiveness of the pooled schedule
	// paths and the high-water mark of the pending-event heap. All of them
	// are pure functions of the simulated computation, so they are safe to
	// surface in determinism-sensitive reports.
	poolHits   uint64
	poolMisses uint64
	heapPeak   int
}

// Profile is a snapshot of the engine's self-profiling counters.
type Profile struct {
	// Processed counts events that have fired.
	Processed uint64 `json:"processed"`
	// PoolHits counts pooled schedules served from the free list;
	// PoolMisses counts those that took a never-used event.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// HeapPeak is the maximum number of simultaneously pending events.
	HeapPeak int `json:"heap_peak"`
}

// Profile returns the engine's self-profiling counters.
func (e *Engine) Profile() Profile {
	return Profile{
		Processed:  e.processed,
		PoolHits:   e.poolHits,
		PoolMisses: e.poolMisses,
		HeapPeak:   e.heapPeak,
	}
}

// NewEngine returns an engine whose clock starts at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.queue.n }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// After schedules handler to run after delay from the current virtual time.
// A zero delay schedules it at the current time, after every event already
// scheduled for that time. Events are fire-and-forget: no reference escapes,
// so the engine recycles each event after it fires instead of allocating a
// new one per schedule. Scheduling in the past or a nil handler is a
// programming bug and panics, as do the other schedule methods.
func (e *Engine) After(delay time.Duration, handler Handler) {
	e.AfterAt(e.now+delay, handler)
}

// AfterAt is After with an absolute virtual timestamp.
func (e *Engine) AfterAt(at time.Duration, handler Handler) {
	e.schedule(at, callHandler, handler, handler == nil)
}

// AfterArg schedules h(arg) to run after delay. Unlike After the handler is
// a plain function plus a pre-bound argument, so scheduling allocates
// nothing when h is a package-level function and arg is a pointer.
func (e *Engine) AfterArg(delay time.Duration, h ArgHandler, arg any) {
	e.AfterArgAt(e.now+delay, h, arg)
}

// AfterArgAt is AfterArg with an absolute virtual timestamp.
func (e *Engine) AfterArgAt(at time.Duration, h ArgHandler, arg any) {
	e.schedule(at, h, arg, h == nil)
}

// schedule queues a pooled h(arg) at at, panicking on a nil handler (which
// the caller reports, since a boxed nil Handler is a non-nil arg) or a time
// before now.
func (e *Engine) schedule(at time.Duration, h ArgHandler, arg any, nilHandler bool) {
	if nilHandler {
		panic(errors.New("sim: nil handler"))
	}
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	ev := e.pool.Get()
	if ev == nil {
		e.poolMisses++
		ev = e.pool.New()
	} else {
		e.poolHits++
	}
	ev.handler, ev.arg, ev.pooled = h, arg, true
	e.push(ev, at)
}

// push stamps ev with at and the next sequence number and queues it.
func (e *Engine) push(ev *event, at time.Duration) {
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.queue.push(ev)
	if e.queue.n > e.heapPeak {
		e.heapPeak = e.queue.n
	}
}

// fire advances the clock to ev's timestamp and invokes its handler. The
// event must already be popped. Pooled events are recycled before the
// handler runs: the event is fully off the queue, so the handler (which may
// schedule new work) can reuse it immediately. The handler and argument
// references are dropped so the closure (and anything it captures) can be
// collected.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.processed++
	h, arg := ev.handler, ev.arg
	if ev.pooled {
		ev.handler, ev.arg = nil, nil
		e.pool.Put(ev)
	}
	h(arg, e.now)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	if e.queue.n == 0 {
		return false
	}
	e.fire(e.queue.pop(never))
	return true
}

// Halt stops the engine's current (or next) Run after the in-flight event
// completes, leaving the clock wherever it was. It must only be called from a
// handler firing on this engine — the same goroutine Run is looping on. A
// halted run is abandoned, not resumable: the engine makes no promise about
// the events still queued.
func (e *Engine) Halt() { e.halted = true }

// Run processes events until the virtual clock reaches until or the event
// queue drains, whichever comes first. The clock is advanced to until even if
// the queue drains earlier, so repeated Run calls observe monotonic time.
func (e *Engine) Run(until time.Duration) error {
	if e.running {
		return ErrRunning
	}
	if until < e.now {
		return fmt.Errorf("%w: until=%v now=%v", ErrPastEvent, until, e.now)
	}
	e.running = true
	defer func() { e.running = false }()

	for e.queue.n > 0 && !e.halted {
		ev := e.queue.pop(until)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if e.now < until && !e.halted {
		e.now = until
	}
	return nil
}

// RunAll processes events until the queue drains. A safety cap bounds the
// number of processed events to protect tests against runaway feedback loops;
// it returns an error when the cap is hit.
func (e *Engine) RunAll(maxEvents uint64) error {
	if e.running {
		return ErrRunning
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.processed
	for e.queue.n > 0 {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded event cap of %d", maxEvents)
		}
		e.fire(e.queue.pop(never))
	}
	return nil
}

// eventQueue is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// 1990) over the 128-bit key (at, seq). It keeps a floor, the key of the last
// event it settled on, and files every pending event in the bucket named by
// the highest bit in which its key differs from the floor: buckets 64–127
// for a difference in at, 0–63 for one in seq alone. Every key in bucket i is
// below every key in bucket i+1, so the minimum is in the lowest non-empty
// bucket. Settling on it moves the floor up to it, and the rest of that
// bucket then differs from the new floor in a lower bit and drops into lower
// buckets; each event drops at most 127 times, however deep the queue.
//
// The floor must stay at or below every key still to be pushed. Events are
// never scheduled before now and seq only grows, so any floor at or below the
// last fired event is safe. Every popped event fires, so only one case would
// lift it past that: Run stops at its horizon with the earliest event still
// pending, and its caller may then schedule between the horizon and that
// event, so pop never settles on an event it leaves queued. A lone event
// leaves the floor where it is: nothing needs to drop, and the old floor is
// still a lower bound.
//
// Each bucket is an intrusive singly-linked list through event.next, which
// the free list uses only for events off the queue, so the queue allocates
// nothing. Because (at, seq) is a total order — seq is unique — and pop
// always takes the minimum, events come out in exactly ascending (at, seq),
// whatever the order inside a bucket, which keeps simulations bit-for-bit
// reproducible. A key never equals the floor (the settled event leaves the
// queue), so the textbook bucket for equal keys is not needed.
type eventQueue struct {
	n       int
	at      time.Duration // floor key
	seq     uint64
	mask    [2]uint64 // bit i set iff buckets[i] is non-empty
	buckets [128]*event
}

// push adds ev; its key must lie above the floor.
func (q *eventQueue) push(ev *event) {
	q.file(ev)
	q.n++
}

// file links ev into the bucket its key falls in under the current floor.
func (q *eventQueue) file(ev *event) {
	var i int
	if d := uint64(ev.at ^ q.at); d != 0 {
		i = 63 + bits.Len64(d)
	} else {
		i = bits.Len64(ev.seq^q.seq) - 1
	}
	ev.next = q.buckets[i]
	q.buckets[i] = ev
	q.mask[i>>6] |= 1 << (i & 63)
}

// pop removes and returns the earliest event. An earliest event due after
// until stays queued, and pop returns nil without moving the floor. The queue
// must not be empty.
func (q *eventQueue) pop(until time.Duration) *event {
	i := bits.TrailingZeros64(q.mask[0])
	if i == 64 {
		i += bits.TrailingZeros64(q.mask[1])
	}
	best, link := q.buckets[i], &q.buckets[i]
	for prev, ev := best, best.next; ev != nil; prev, ev = ev, ev.next {
		if ev.at < best.at || ev.at == best.at && ev.seq < best.seq {
			best, link = ev, &prev.next
		}
	}
	if best.at > until {
		return nil
	}
	*link = best.next
	if rest := q.buckets[i]; rest != nil {
		// Settle: best becomes the floor and the rest of the bucket drops.
		q.buckets[i] = nil
		q.at, q.seq = best.at, best.seq
		for rest != nil {
			ev := rest
			rest = ev.next
			q.file(ev)
		}
	}
	if q.buckets[i] == nil {
		q.mask[i>>6] &^= 1 << (i & 63)
	}
	best.next = nil
	q.n--
	return best
}
