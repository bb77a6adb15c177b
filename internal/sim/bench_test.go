package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkScheduleFire measures the cost of one schedule + fire cycle on an
// otherwise empty engine: the floor for every hop in the simulator.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	noop := func(time.Duration) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, noop)
		e.Step()
	}
}

// BenchmarkQueueChurn keeps a deep queue (as a loaded scenario does) while
// scheduling and firing, exercising the heap's sift paths at realistic depth.
func BenchmarkQueueChurn(b *testing.B) {
	e := NewEngine()
	noop := func(time.Duration) {}
	const depth = 4096
	for i := 0; i < depth; i++ {
		e.After(time.Duration(i+1)*time.Millisecond, noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(depth)*time.Millisecond, noop)
		e.Step()
	}
}

// BenchmarkQueueDeep holds the queue at a fixed depth with each new event a
// uniformly random delay ahead, spread over a horizon that grows with depth:
// the shapes of steady_mixed (64 pending over 2 ms), suite_grid (4 096 over
// 2 s) and tenants_admission (40 000 over 20 s), whose replica steps queue
// seconds behind node backlogs. Unlike QueueChurn's monotone times, a new
// event here lands anywhere in the queue.
func BenchmarkQueueDeep(b *testing.B) {
	for _, c := range []struct {
		depth  int
		spread time.Duration
	}{{64, 2 * time.Millisecond}, {4096, 2 * time.Second}, {40000, 20 * time.Second}} {
		b.Run(fmt.Sprint(c.depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]time.Duration, 1<<16)
			for i := range delays {
				delays[i] = 1 + time.Duration(rng.Int63n(int64(c.spread)))
			}
			e := NewEngine()
			noop := func(time.Duration) {}
			for i := 0; i < c.depth; i++ {
				e.After(delays[i], noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(delays[i&(len(delays)-1)], noop)
				e.Step()
			}
		})
	}
}

// BenchmarkEventCascade measures a self-sustaining event chain, the shape of
// the open-loop workload generator: each fired event schedules its successor.
func BenchmarkEventCascade(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var loop Handler
	loop = func(time.Duration) {
		if remaining > 0 {
			remaining--
			e.After(time.Microsecond, loop)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(time.Microsecond, loop)
	for e.Step() {
	}
}

// BenchmarkTicker measures the periodic-callback path used by control loops,
// anti-entropy sweeps and samplers.
func BenchmarkTicker(b *testing.B) {
	e := NewEngine()
	tk, err := NewTicker(e, time.Millisecond, func(time.Duration) {})
	if err != nil {
		b.Fatalf("NewTicker: %v", err)
	}
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkLogNormal compares one exact draw (NormFloat64 and math.Exp) with
// one table draw (a Uint64, a table read and a linear interpolation).
func BenchmarkLogNormal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := NewLogNormalTable(0.3)
	sink := 0.0
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += LogNormal(rng, 1e-3, 0.3)
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += tab.Draw(rng, 1e-3)
		}
	})
	lognormalSink = sink
}

// lognormalSink keeps BenchmarkLogNormal's draws live.
var lognormalSink float64
