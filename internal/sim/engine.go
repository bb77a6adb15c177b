package sim

import (
	"errors"
	"fmt"
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
	// next links recycled events into the engine's free list.
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
	if len(e.queue) > e.heapPeak {
		e.heapPeak = len(e.queue)
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
func (e *Engine) Pending() int { return len(e.queue) }

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
	for len(e.queue) > 0 {
		ev := e.queue.pop()
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

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

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

	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		if next.canceled {
			e.discard(e.queue.pop())
			continue
		}
		if next.at > until {
			break
		}
		e.fire(e.queue.pop())
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
	for len(e.queue) > 0 {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded event cap of %d", maxEvents)
		}
		next := e.queue.pop()
		if next.canceled {
			e.discard(next)
			continue
		}
		e.fire(next)
	}
	return nil
}

// eventQueue is a hand-rolled 4-ary min-heap ordered by (time, sequence).
// Compared to container/heap over a 2-ary heap this avoids the interface
// boxing on every push/pop, halves the sift-down depth (pop-heavy workloads
// dominate a simulator), and lets the comparisons inline. Because (at, seq)
// is a total order — seq is unique — the pop order is exactly ascending
// (at, seq) whatever the internal arity, which keeps simulations bit-for-bit
// reproducible.
type eventQueue []*Event

// eventBefore reports whether a fires before b.
func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up with the hole-movement idiom (the event is
// written once at its final position instead of swapping at every level).
func (q *eventQueue) push(ev *Event) {
	s := append(*q, ev)
	*q = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventBefore(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event {
	s := *q
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*q = s
	if n > 0 {
		// Sift the former tail down from the root.
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventBefore(s[c], s[best]) {
					best = c
				}
			}
			if !eventBefore(s[best], last) {
				break
			}
			s[i] = s[best]
			i = best
		}
		s[i] = last
	}
	return top
}
