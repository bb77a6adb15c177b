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
	// ev is the ticker's one event, re-armed every period. It is not pooled:
	// the ticker is its only holder.
	ev      event
	stopped bool
	fired   uint64
}

// tickEvent fires the ticker passed as its argument.
func tickEvent(arg any, now time.Duration) { arg.(*Ticker).tick(now) }

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
	t.ev.handler, t.ev.arg = tickEvent, t
	engine.push(&t.ev, engine.now+period)
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
	// Re-arm the event that just fired: it is off the queue, and the
	// sequence number is taken here, exactly where scheduling a fresh event
	// would take it.
	t.engine.push(&t.ev, now+t.period)
}

// Fired returns how many times the ticker has invoked its handler.
func (t *Ticker) Fired() uint64 { return t.fired }

// Period returns the tick period.
func (t *Ticker) Period() time.Duration { return t.period }

// Stop ends future ticks. It is safe to call multiple times and from within
// the ticker's own handler. A tick already queued still fires, as a no-op.
func (t *Ticker) Stop() { t.stopped = true }
