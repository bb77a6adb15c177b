package sim

import (
	"errors"
	"time"
)

// Ticker invokes a handler at a fixed virtual-time period until stopped.
// It is the building block for control loops, anti-entropy sweeps and
// metric aggregation windows inside the simulator.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	handler Handler
	// next is the ticker's one event, re-armed every period.
	next    *Event
	stopped bool
	fired   uint64
}

// NewTicker creates and starts a ticker on engine with the given period.
// The first tick fires one period from now.
func NewTicker(engine *Engine, period time.Duration, handler Handler) (*Ticker, error) {
	if engine == nil {
		return nil, errors.New("sim: nil engine")
	}
	if period <= 0 {
		return nil, errors.New("sim: ticker period must be positive")
	}
	if handler == nil {
		return nil, errors.New("sim: nil ticker handler")
	}
	t := &Ticker{engine: engine, period: period, handler: handler}
	ev, err := engine.Schedule(period, t.tick)
	if err != nil {
		return nil, err
	}
	t.next = ev
	return t, nil
}

func (t *Ticker) tick(now time.Duration) {
	if t.stopped {
		return
	}
	t.fired++
	t.handler(now)
	if t.stopped {
		return
	}
	// Re-arm the event that just fired: it is off the queue and not pooled,
	// so the ticker is its only holder. The sequence number is taken here,
	// exactly where scheduling a fresh event would take it.
	e := t.engine
	e.seq++
	t.next.at, t.next.seq = now+t.period, e.seq
	e.queue.push(t.next)
	e.notePush()
}

// Fired returns how many times the ticker has invoked its handler.
func (t *Ticker) Fired() uint64 { return t.fired }

// Period returns the tick period.
func (t *Ticker) Period() time.Duration { return t.period }

// Stop cancels future ticks. It is safe to call multiple times and from
// within the ticker's own handler.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
	}
}
