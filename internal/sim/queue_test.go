package sim

import (
	"sort"
	"testing"
	"time"
)

// queueKey is an event's position in the total firing order.
type queueKey struct {
	at  time.Duration
	seq uint64
}

// scriptDelay decodes one script byte into a delay. The low two bits pick a
// unit (zero, µs, ms, 100 ms) and the rest a multiple of it, so equal bytes
// give equal times and most scripts schedule many ties.
func scriptDelay(b byte) time.Duration {
	units := [4]time.Duration{0, time.Microsecond, time.Millisecond, 100 * time.Millisecond}
	return time.Duration(b>>2) * units[b&3]
}

// FuzzEventQueueOrder plays scripts of schedules (relative and absolute-time,
// with and without an argument, some scheduling a child when they fire), Runs
// that stop short of the earliest pending event — after which the next
// schedules often land below it — Steps and a ticker, then drains the engine.
// The fired (at, seq) sequence must equal a sort of every event that was
// scheduled, plus every tick the ticker ran its handler for.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 102, 5, 50, 0, 42, 0, 42})                                       // the shape of TestScheduleBelowPeekedMinimum
	f.Add([]byte{0, 4, 0, 4, 2, 4, 3, 4, 1, 4, 6, 0, 6, 0})                          // ties at one time, FIFO across kinds
	f.Add([]byte{7, 9, 0, 130, 4, 0, 5, 22, 2, 6, 5, 10, 7, 0})                      // ticker, absolute-time schedules, short Runs
	f.Add([]byte{1, 255, 2, 254, 0, 253, 5, 3, 1, 7, 5, 11, 0, 1, 4, 1, 6, 0, 2, 0}) // children scheduled from handlers, far-apart times
	f.Add([]byte{0, 90, 0, 94, 4, 0, 4, 1, 6, 0, 0, 50, 0, 94})                      // Step fires an event due now, then schedules land below the rest
	f.Fuzz(func(t *testing.T, script []byte) {
		// 64 ops are plenty to reach every shape; longer scripts only slow
		// the fuzzer down with ticks.
		script = script[:min(len(script), 128)]
		e := NewEngine()
		var (
			keys  []queueKey
			fired []bool
			order []queueKey
			tk    *Ticker
			ticks []queueKey
		)
		fire := func(id int, now time.Duration) {
			if now != keys[id].at {
				t.Fatalf("event %v fired at %v", keys[id], now)
			}
			if fired[id] {
				t.Fatalf("event %v fired twice", keys[id])
			}
			fired[id] = true
			order = append(order, keys[id])
		}
		record := func(at time.Duration, seq uint64) int {
			keys = append(keys, queueKey{at, seq})
			fired = append(fired, false)
			return len(keys) - 1
		}
		argFire := func(arg any, now time.Duration) { fire(arg.(int), now) }
		for i := 0; i+1 < len(script); i += 2 {
			op, b := script[i]%8, script[i+1]
			d := scriptDelay(b)
			switch op {
			case 0: // an absolute-time event
				var id int
				e.AfterAt(e.now+d, func(now time.Duration) { fire(id, now) })
				id = record(e.now+d, e.seq)
			case 1: // an absolute-time event that schedules a child
				var id int
				e.AfterAt(e.now+d, func(now time.Duration) {
					fire(id, now)
					var child int
					e.After(scriptDelay(b^0x55), func(now time.Duration) { fire(child, now) })
					child = record(now+scriptDelay(b^0x55), e.seq)
				})
				id = record(e.now+d, e.seq)
			case 2: // an event
				var id int
				e.After(d, func(now time.Duration) { fire(id, now) })
				id = record(e.now+d, e.seq)
			case 3: // an event carrying its argument
				e.AfterArg(d, argFire, len(keys))
				record(e.now+d, e.seq)
			case 4: // an absolute-time event carrying its argument
				e.AfterArgAt(e.now+d, argFire, len(keys))
				record(e.now+d, e.seq)
			case 5:
				if err := e.Run(e.now + d); err != nil {
					t.Fatalf("Run: %v", err)
				}
			case 6:
				e.Step()
			case 7:
				if tk == nil {
					var err error
					tk, err = NewTicker(e, time.Duration(1+b%32)*3*time.Millisecond, func(now time.Duration) {
						ticks = append(ticks, queueKey{now, tk.ev.seq})
						order = append(order, queueKey{now, tk.ev.seq})
					})
					if err != nil {
						t.Fatalf("NewTicker: %v", err)
					}
				} else {
					tk.Stop()
				}
			}
		}
		if tk != nil {
			tk.Stop()
		}
		if err := e.RunAll(1 << 20); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after RunAll", e.Pending())
		}
		want := append(append([]queueKey(nil), ticks...), keys...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(order) != len(want) {
			t.Fatalf("fired %d events, want %d", len(order), len(want))
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("firing %d is %v, want %v", i, order[i], want[i])
			}
		}
	})
}
