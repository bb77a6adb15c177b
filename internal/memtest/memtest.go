// Package memtest reads what one step of code allocates, for the tests that
// bound how a structure grows.
package memtest

import (
	"math"
	"runtime"
	"runtime/debug"
)

// Growth returns the smallest TotalAlloc and Mallocs deltas of three
// readings. For each reading it calls fresh, which builds a fresh subject,
// calls measure once with the step to read, and may check the subject
// afterwards.
//
// MemStats are process-wide, so a reading also counts what the runtime
// allocates for itself meanwhile: an OS thread started under CPU load, or
// the scavenger's timer heap and the mark workers of a GC cycle. The
// collector is held off during each step, and the smallest of three
// readings is the step's own.
func Growth(fresh func(measure func(step func()))) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	for range 3 {
		fresh(func(step func()) {
			var before, after runtime.MemStats
			gcPercent := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
			step()
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gcPercent)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		})
	}
	return bytes, mallocs
}
