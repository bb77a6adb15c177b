package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	e.After(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	e.After(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	if err := e.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
	if e.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", e.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("event %d fired out of order: %v", i, order)
		}
	}
}

// panicValue runs fn and returns what it panicked with, or nil.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestScheduleInPastFails(t *testing.T) {
	e := NewEngine()
	e.After(10*time.Millisecond, func(time.Duration) {})
	if err := e.Run(20 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, schedule := range map[string]func(){
		"AfterAt in the past":          func() { e.AfterAt(5*time.Millisecond, func(time.Duration) {}) },
		"After with negative delay":    func() { e.After(-time.Millisecond, func(time.Duration) {}) },
		"AfterArg with negative delay": func() { e.AfterArg(-time.Millisecond, func(any, time.Duration) {}, nil) },
		"AfterArgAt in the past":       func() { e.AfterArgAt(5*time.Millisecond, func(any, time.Duration) {}, nil) },
	} {
		err, _ := panicValue(schedule).(error)
		if !errors.Is(err, ErrPastEvent) {
			t.Errorf("%s panicked with %v, want ErrPastEvent", name, err)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after rejected schedules, want 0", e.Pending())
	}
}

func TestScheduleNilHandlerFails(t *testing.T) {
	e := NewEngine()
	for name, schedule := range map[string]func(){
		"After":    func() { e.After(time.Millisecond, nil) },
		"AfterAt":  func() { e.AfterAt(time.Millisecond, nil) },
		"AfterArg": func() { e.AfterArg(time.Millisecond, nil, 1) },
	} {
		err, _ := panicValue(schedule).(error)
		if err == nil || !strings.Contains(err.Error(), "nil handler") {
			t.Errorf("%s(nil handler) panicked with %v, want a nil handler error", name, err)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after rejected schedules, want 0", e.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.After(10*time.Millisecond, func(now time.Duration) {
		times = append(times, now)
		e.After(15*time.Millisecond, func(now time.Duration) {
			times = append(times, now)
		})
	})
	if err := e.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 {
		t.Fatalf("len(times) = %d, want 2", len(times))
	}
	if times[0] != 10*time.Millisecond || times[1] != 25*time.Millisecond {
		t.Fatalf("times = %v, want [10ms 25ms]", times)
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(100*time.Millisecond, func(time.Duration) { fired = true })
	if err := e.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 50*time.Millisecond {
		t.Fatalf("Now() = %v, want 50ms", e.Now())
	}
	if err := e.Run(200 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire after horizon extended")
	}
}

// TestScheduleBelowPeekedMinimum schedules, after a Run that stopped short of
// the earliest pending event, two events between the horizon and that event:
// the queue must not have settled on the event it only looked at.
func TestScheduleBelowPeekedMinimum(t *testing.T) {
	e := NewEngine()
	var order []string
	record := func(name string) Handler {
		return func(now time.Duration) { order = append(order, fmt.Sprintf("%s@%v", name, now)) }
	}
	e.After(100*time.Millisecond, record("c"))
	if err := e.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.After(10*time.Millisecond, record("a"))
	e.After(10*time.Millisecond, record("b"))
	if err := e.Run(200 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a@60ms", "b@60ms", "c@100ms"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

func TestRunBackwardsFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.Run(500 * time.Millisecond); err == nil {
		t.Fatal("Run into the past succeeded, want error")
	}
}

func TestRunAllCap(t *testing.T) {
	e := NewEngine()
	var loop func(now time.Duration)
	loop = func(time.Duration) { e.After(time.Millisecond, loop) }
	e.After(time.Millisecond, loop)
	if err := e.RunAll(100); err == nil {
		t.Fatal("RunAll with runaway loop succeeded, want cap error")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk, err := NewTicker(e, 10*time.Millisecond, func(now time.Duration) {
		ticks = append(ticks, now)
	})
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	if err := e.Run(55 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 5 {
		t.Fatalf("len(ticks) = %d, want 5 (%v)", len(ticks), ticks)
	}
	if tk.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", tk.Fired())
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

// TestTickerRearmsWithoutAllocating pins that a running ticker re-arms the
// event that just fired instead of scheduling a new one every period.
func TestTickerRearmsWithoutAllocating(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(e, time.Millisecond, func(time.Duration) {}); err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = e.Run(e.Now() + 10*time.Millisecond) }); avg != 0 {
		t.Errorf("ten ticks allocate %.0f objects, want 0", avg)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	var err error
	tk, err = NewTicker(e, 10*time.Millisecond, func(time.Duration) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 || tk.Fired() != 3 {
		t.Fatalf("count = %d, Fired() = %d, want 3", count, tk.Fired())
	}

	// Stopped from outside its handler, a ticker's already queued tick
	// still fires, as a no-op that re-arms nothing.
	count = 0
	tk, err = NewTicker(e, 10*time.Millisecond, func(time.Duration) { count++ })
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	tk.Stop()
	before := e.Processed()
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 0 || tk.Fired() != 0 {
		t.Fatalf("stopped ticker fired its handler %d times (Fired() = %d), want 0", count, tk.Fired())
	}
	if got := e.Processed() - before; got != 1 || e.Pending() != 0 {
		t.Fatalf("after Stop: %d events fired and %d pending, want the queued tick to fire once and nothing left", got, e.Pending())
	}
}

func TestTickerValidation(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(nil, time.Second, func(time.Duration) {}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewTicker(e, 0, func(time.Duration) {}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewTicker(e, time.Second, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestRandStreamsIndependentAndDeterministic(t *testing.T) {
	a1 := NewRandSource(42).Stream("alpha")
	a2 := NewRandSource(42).Stream("alpha")
	b := NewRandSource(42).Stream("beta")
	for i := 0; i < 100; i++ {
		va, vb := a1.Int63(), a2.Int63()
		if va != vb {
			t.Fatalf("same-named streams diverged at %d: %d vs %d", i, va, vb)
		}
		_ = b.Int63()
	}
	c := NewRandSource(43).Stream("alpha")
	same := true
	a3 := NewRandSource(42).Stream("alpha")
	for i := 0; i < 10; i++ {
		if a3.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("streams from different seeds produced identical output")
	}
}

func TestExponentialProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		mean := 10.0
		sum := 0.0
		const n = 2000
		local := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			v := Exponential(local, mean)
			if v < 0 {
				return false
			}
			sum += v
		}
		avg := sum / n
		return avg > mean*0.8 && avg < mean*1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Fatalf("exponential property failed: %v", err)
	}
	if Exponential(rng, 0) != 0 {
		t.Fatal("Exponential with zero mean should be 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if v := LogNormal(rng, 5, 0.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
	if LogNormal(rng, 0, 1) != 0 {
		t.Fatal("LogNormal with zero median should be 0")
	}
}

func TestZipfInRangeAndSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 1.3, 1000)
	counts := make(map[uint64]int)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] < counts[500] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
	u := NewZipf(rng, 1.0, 10)
	for i := 0; i < 1000; i++ {
		if v := u.Next(); v >= 10 {
			t.Fatalf("uniform fallback sample %d out of range", v)
		}
	}
	zero := NewZipf(rng, 1.3, 0)
	if v := zero.Next(); v != 0 {
		t.Fatalf("n=0 zipf returned %d, want 0", v)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine()
		src := NewRandSource(99)
		rng := src.Stream("load")
		var out []time.Duration
		var gen func(now time.Duration)
		gen = func(now time.Duration) {
			out = append(out, now)
			if len(out) < 50 {
				d := time.Duration(Exponential(rng, float64(time.Millisecond)))
				e.After(d+time.Microsecond, gen)
			}
		}
		e.After(time.Millisecond, gen)
		if err := e.Run(time.Hour); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEngineProfilePoolCounters pins the free-list counters Report.Profile
// and the benchmark's pool hit rate read, for a fixed schedule: a ticker
// that, every 10 ms, schedules a burst of three After events, each of which
// chains one AfterArg event. A ticker's event is its own and never counts; a
// pooled schedule is a hit when an event that already fired can carry it and
// a miss when only a never-used one can.
func TestEngineProfilePoolCounters(t *testing.T) {
	e := NewEngine()
	chained := 0
	chain := func(arg any, _ time.Duration) { chained += arg.(int) }
	burst := func(now time.Duration) {
		for i := 1; i <= 3; i++ {
			e.After(time.Duration(i)*time.Millisecond, func(time.Duration) {
				e.AfterArg(time.Duration(i)*time.Millisecond, chain, 1)
			})
		}
	}
	if _, err := NewTicker(e, 10*time.Millisecond, burst); err != nil {
		t.Fatalf("NewTicker: %v", err)
	}
	e.After(time.Millisecond, func(time.Duration) {})
	if err := e.Run(95 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Nine ticks, 27 bursts and 26 chained events fire (the chain of the
	// last tick's third burst falls due past the horizon), plus the lone
	// After: 55 pooled schedules, of which the first After and the first
	// tick's second and third bursts find no fired event to reuse.
	want := Profile{Processed: 63, PoolHits: 52, PoolMisses: 3, HeapPeak: 4}
	if got := e.Profile(); got != want || chained != 26 {
		t.Errorf("Profile() = %+v with %d chained events, want %+v with 26", got, chained, want)
	}
}
