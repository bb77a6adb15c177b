package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// reading is what one timed region cost the host.
type reading struct {
	Wall    time.Duration
	CPU     time.Duration // process user+sys, all threads
	Mallocs uint64
	Bytes   uint64
	GCs     uint32
	GCPause time.Duration
	GCCPU   time.Duration
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (ru_maxrss is in KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPU returns the CPU seconds the runtime attributes to the collector.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// measure times fn. The MemStats reads stop the world, so they sit outside
// the wall and CPU stamps; only fn itself is inside them.
func measure(fn func() error) (reading, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPU()
	cpu0 := processCPU()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	cpu1 := processCPU()
	gc1 := gcCPU()
	runtime.ReadMemStats(&after)
	return reading{
		Wall:    wall,
		CPU:     cpu1 - cpu0,
		Mallocs: after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
		GCs:     after.NumGC - before.NumGC,
		GCPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		GCCPU:   gc1 - gc0,
	}, err
}
