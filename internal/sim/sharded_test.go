package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// shardedDigest runs one lead-0 lane plus lanes lead-1 lanes, each firing a
// lane-dependent tick chain with deliberate same-time collisions between its
// own events, and folds every lane's firing order into a digest string.
// Identical digests mean identical firing order, bit for bit.
func shardedDigest(t *testing.T, epoch time.Duration, workers, lanes int, until time.Duration) string {
	t.Helper()
	se, err := NewShardedEngine(epoch, workers)
	if err != nil {
		t.Fatalf("NewShardedEngine: %v", err)
	}
	digests := make([]string, lanes+1)
	engines := make([]*Engine, lanes+1)
	for i := range digests {
		lead := 1
		if i == 0 {
			lead = 0
		}
		lane, err := se.NewLane(lead)
		if err != nil {
			t.Fatalf("NewLane(%d): %v", i, err)
		}
		e := lane.Engine()
		engines[i] = e
		stride := time.Duration(i+1) * 100 * time.Microsecond
		id := 0
		var tick Handler
		tick = func(now time.Duration) {
			digests[i] += fmt.Sprintf("%d@%d;", id, now)
			id++
			// Occasionally schedule an extra event colliding with a later tick.
			if id%7 == 0 {
				e.AfterArgAt(now+3*stride, func(arg any, at time.Duration) {
					digests[i] += fmt.Sprintf("x%d@%d;", arg.(int), at)
				}, id)
			}
			if next := now + stride; next <= until {
				e.AfterAt(next, tick)
			}
		}
		e.AfterAt(0, tick)
	}
	if err := se.Run(until); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := ""
	for i, d := range digests {
		if d == "" {
			t.Fatalf("lane %d processed no events", i)
		}
		if engines[i].Now() != until {
			t.Fatalf("lane %d stopped at %v, want %v", i, engines[i].Now(), until)
		}
		out += fmt.Sprintf("lane %d: %s\n", i, d)
	}
	return out
}

// TestShardedWorkerInvariance pins that the firing order on every lane is
// identical whatever the worker count, with the lanes running concurrently
// on the worker pool.
func TestShardedWorkerInvariance(t *testing.T) {
	const until = 50 * time.Millisecond
	want := shardedDigest(t, time.Millisecond, 1, 3, until)
	for _, workers := range []int{2, 4, 8} {
		got := shardedDigest(t, time.Millisecond, workers, 3, until)
		if got != want {
			t.Fatalf("digest diverged at workers=%d", workers)
		}
	}
}

// TestShardedEpochInvariance pins that the lockstep window length only
// decides where the rounds cut the run, never the firing order.
func TestShardedEpochInvariance(t *testing.T) {
	const until = 50 * time.Millisecond
	want := shardedDigest(t, time.Millisecond, 2, 3, until)
	for _, epoch := range []time.Duration{250 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond, 70 * time.Millisecond} {
		got := shardedDigest(t, epoch, 2, 3, until)
		if got != want {
			t.Fatalf("digest diverged at epoch=%v", epoch)
		}
	}
}

// TestShardedRunOnce pins the single-shot contract.
func TestShardedRunOnce(t *testing.T) {
	se, err := NewShardedEngine(time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	se.NewLane(0)
	if err := se.Run(time.Millisecond); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := se.Run(2 * time.Millisecond); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Run = %v, want ErrRunning", err)
	}
	if _, err := se.NewLane(0); err == nil {
		t.Fatal("NewLane after Run succeeded")
	}
}

// TestShardedSingleLaneMatchesEngine pins that a one-lane sharded engine is
// bit-for-bit the plain engine: the same event program produces the same
// schedule.
func TestShardedSingleLaneMatchesEngine(t *testing.T) {
	program := func(e *Engine) *string {
		out := new(string)
		var tick Handler
		tick = func(now time.Duration) {
			*out += fmt.Sprintf("%d;", now)
			if now < 10*time.Millisecond {
				e.After(700*time.Microsecond, tick)
			}
		}
		e.AfterAt(0, tick)
		return out
	}

	plain := NewEngine()
	wantOut := program(plain)
	if err := plain.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	se, err := NewShardedEngine(time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	lane, _ := se.NewLane(0)
	gotOut := program(lane.Engine())
	if err := se.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if *gotOut != *wantOut {
		t.Fatalf("single-lane sharded run diverged from plain engine:\n got %q\nwant %q", *gotOut, *wantOut)
	}
	if lane.Engine().Now() != plain.Now() {
		t.Fatalf("final clocks differ: %v vs %v", lane.Engine().Now(), plain.Now())
	}
	if rounds := se.Profile().Rounds; rounds != 21 {
		t.Fatalf("Profile().Rounds = %d, want 21 (bootstrap + 20 epochs)", rounds)
	}
}

// shardedSteadyState runs a two-lane engine whose per-epoch event volume is
// constant for the given number of epochs.
func shardedSteadyState(epochs int) {
	const epoch = time.Millisecond
	se, _ := NewShardedEngine(epoch, 1)
	until := time.Duration(epochs) * epoch
	for lead := 0; lead < 2; lead++ {
		lane, _ := se.NewLane(lead)
		var tick Handler
		tick = func(now time.Duration) {
			if now < until {
				lane.Engine().After(50*time.Microsecond, tick)
			}
		}
		lane.Engine().AfterAt(0, tick)
	}
	if err := se.Run(until); err != nil {
		panic(err)
	}
}

// TestShardedSteadyStateAllocs pins that the lockstep rounds stop allocating
// once warm: doubling the number of epochs must not add allocations beyond
// noise. Run at workers=1 so the measurement sees no goroutine machinery.
func TestShardedSteadyStateAllocs(t *testing.T) {
	measure := func(epochs int) uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		shardedSteadyState(epochs)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	measure(50) // warm up any lazy runtime state
	short := measure(200)
	long := measure(400)
	// 200 extra epochs fire ~8k events; any per-event or per-epoch
	// allocation regression shows up thousands of times over this slack.
	if long > short+500 {
		t.Fatalf("sharded steady state allocates: %d mallocs for 200 epochs vs %d for 400", short, long)
	}
}
