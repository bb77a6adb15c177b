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

// Event is a scheduled callback inside the simulation.
type Event struct {
	at      time.Duration
	seq     uint64
	handler Handler
	// argHandler and arg carry an ArgHandler event (scheduled with
	// AfterArg/AfterArgAt); handler and argHandler are mutually exclusive.
	argHandler ArgHandler
	arg        any
	canceled   bool
	// pooled marks events scheduled through After/AfterAt: no reference to
	// them ever escapes the engine, so they are recycled after firing.
	pooled bool
	// next links a pending event into its queue bucket and a recycled one
	// into the engine's free list.
	next *Event
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Cancel marks the event so that it will not fire. Cancelling an already
// fired event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// Canceled reports whether the event has been cancelled.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

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
	// processed counts events that have fired (excluding cancelled ones).
	processed uint64
	// free is the head of the recycled-event list. Events scheduled with
	// After/AfterAt return here after firing, so a steady-state simulation
	// schedules millions of events with a handful of allocations; a miss
	// takes a never-used event from slab.
	free *Event
	slab Slab[Event]
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
	// Processed counts events that have fired (excluding cancelled ones).
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

// notePush tracks the pending-heap high-water mark; call after queue.push.
func (e *Engine) notePush() {
	if e.queue.n > e.heapPeak {
		e.heapPeak = e.queue.n
	}
}

// NewEngine returns an engine whose clock starts at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events currently scheduled (including
// cancelled events that have not been drained yet).
func (e *Engine) Pending() int { return e.queue.n }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule schedules handler to run after delay from the current virtual
// time. A negative delay is an error; a zero delay schedules the handler at
// the current time, after all handlers already scheduled for that time.
func (e *Engine) Schedule(delay time.Duration, handler Handler) (*Event, error) {
	if delay < 0 {
		return nil, fmt.Errorf("%w: delay %v", ErrPastEvent, delay)
	}
	return e.ScheduleAt(e.now+delay, handler)
}

// ScheduleAt schedules handler to run at absolute virtual time at. The
// returned event is never recycled, so the caller may hold it indefinitely
// (e.g. to cancel it); hot paths that do not need the handle should prefer
// After/AfterAt.
func (e *Engine) ScheduleAt(at time.Duration, handler Handler) (*Event, error) {
	if handler == nil {
		return nil, errors.New("sim: nil handler")
	}
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	e.seq++
	ev := &Event{at: at, seq: e.seq, handler: handler}
	e.queue.push(ev)
	e.notePush()
	return ev, nil
}

// MustSchedule is Schedule but panics on error. It is intended for internal
// simulator wiring where a scheduling error indicates a programming bug.
func (e *Engine) MustSchedule(delay time.Duration, handler Handler) *Event {
	ev, err := e.Schedule(delay, handler)
	if err != nil {
		panic(err)
	}
	return ev
}

// After schedules handler to run after delay without handing out the event,
// panicking on error. It is the fire-and-forget variant of MustSchedule for
// hot paths that never cancel: because no reference escapes, the engine
// recycles the event object after it fires instead of allocating a new one
// per schedule.
func (e *Engine) After(delay time.Duration, handler Handler) {
	if delay < 0 {
		panic(fmt.Errorf("%w: delay %v", ErrPastEvent, delay))
	}
	e.AfterAt(e.now+delay, handler)
}

// AfterAt is After with an absolute virtual timestamp.
func (e *Engine) AfterAt(at time.Duration, handler Handler) {
	if handler == nil {
		panic(errors.New("sim: nil handler"))
	}
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	ev := e.pooledEvent()
	e.seq++
	ev.at = at
	ev.seq = e.seq
	ev.handler = handler
	ev.pooled = true
	e.queue.push(ev)
	e.notePush()
}

// AfterArg schedules h(arg) to run after delay. Like After it is
// fire-and-forget and pooled; unlike After the handler is a plain function
// plus a pre-bound argument, so scheduling allocates nothing when h is a
// package-level function and arg is a pointer.
func (e *Engine) AfterArg(delay time.Duration, h ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Errorf("%w: delay %v", ErrPastEvent, delay))
	}
	e.AfterArgAt(e.now+delay, h, arg)
}

// AfterArgAt is AfterArg with an absolute virtual timestamp.
func (e *Engine) AfterArgAt(at time.Duration, h ArgHandler, arg any) {
	if h == nil {
		panic(errors.New("sim: nil handler"))
	}
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	ev := e.pooledEvent()
	e.seq++
	ev.at = at
	ev.seq = e.seq
	ev.argHandler = h
	ev.arg = arg
	ev.pooled = true
	e.queue.push(ev)
	e.notePush()
}

// pooledEvent takes an event off the free list, or a never-used one from the
// slab when the list is empty.
func (e *Engine) pooledEvent() *Event {
	ev := e.free
	if ev == nil {
		e.poolMisses++
		return e.slab.New()
	}
	e.free = ev.next
	ev.next = nil
	ev.canceled = false
	e.poolHits++
	return ev
}

// release returns a pooled event to the free list. The handler and argument
// references are dropped so the closure (and anything it captures) can be
// collected.
func (e *Engine) release(ev *Event) {
	ev.handler = nil
	ev.argHandler = nil
	ev.arg = nil
	ev.pooled = false
	ev.next = e.free
	e.free = ev
}

// fire advances the clock to ev's timestamp and invokes its handler. The
// event must already be popped and not cancelled. Pooled events are recycled
// before the handler runs: the event is fully off the queue, so the handler
// (which may schedule new work) can reuse it immediately.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.processed++
	h := ev.handler
	ah, arg := ev.argHandler, ev.arg
	if ev.pooled {
		e.release(ev)
	}
	if h != nil {
		h(e.now)
		return
	}
	ah(arg, e.now)
}

// discard drops a cancelled event that has been popped, recycling it when
// pooled.
func (e *Engine) discard(ev *Event) {
	if ev.pooled {
		e.release(ev)
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for e.queue.n > 0 {
		ev := e.queue.pop(never)
		if ev.canceled {
			e.discard(ev)
			continue
		}
		e.fire(ev)
		return true
	}
	return false
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
		if ev.canceled {
			e.discard(ev)
			continue
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
		next := e.queue.pop(never)
		if next.canceled {
			e.discard(next)
			continue
		}
		e.fire(next)
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
// last fired event is safe. Two cases would lift it past that, and pop avoids
// both. Run stops at its horizon with the earliest event still pending, and
// its caller may then schedule between the horizon and that event, so pop
// never settles on an event it leaves queued, nor on a cancelled one beyond
// the horizon that it drops. Step and RunAll may settle on a cancelled event
// beyond now and then find the queue empty, so an empty queue drops the
// floor to zero. A lone event leaves the floor where it is: nothing needs to
// drop, and the old floor is still a lower bound.
//
// Each bucket is an intrusive singly-linked list through Event.next, which
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
	buckets [128]*Event
}

// push adds ev; its key must lie above the floor.
func (q *eventQueue) push(ev *Event) {
	q.file(ev)
	q.n++
}

// file links ev into the bucket its key falls in under the current floor.
func (q *eventQueue) file(ev *Event) {
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

// pop removes and returns the earliest event. An earliest event that is live
// and due after until stays queued, and pop returns nil without moving the
// floor. The queue must not be empty.
func (q *eventQueue) pop(until time.Duration) *Event {
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
	if best.at > until && !best.canceled {
		return nil
	}
	*link = best.next
	if rest := q.buckets[i]; rest != nil && best.at <= until {
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
	if q.n--; q.n == 0 {
		q.at, q.seq = 0, 0
	}
	return best
}
