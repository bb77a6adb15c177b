package metrics

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures the per-sample recording cost on the
// store's latency/window path, including reservoir replacement once full.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}

// BenchmarkHistogramObserveDuration measures the duration-typed entry point
// used by the store for every completed operation.
func BenchmarkHistogramObserveDuration(b *testing.B) {
	h := NewHistogram(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkHistogramSnapshot measures the controller-facing aggregation: one
// sort amortised over three quantile queries.
func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram(4096)
	for i := 0; i < 8192; i++ {
		h.Observe(float64(i%997) * 0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i) * 0.0001) // dirty the sort between snapshots
		_ = h.Snapshot()
	}
}

// BenchmarkHistogramSnapshotSteady is the control_dense sampling tick: a
// default-cap reservoir that has just filled (every observe is a replacement
// candidate with probability near one) or has seen four times its cap (one in
// four is), a thousand observes, then one snapshot. wide_tick is the 10 s
// tick of a busier run: 20 000 observes at four times the cap, so about
// 5 000 slots change between two snapshots.
func BenchmarkHistogramSnapshotSteady(b *testing.B) {
	for _, bc := range []struct {
		name       string
		seen, tick int
	}{
		{"at_cap", DefaultHistogramCap, 1000},
		{"past_cap", 4 * DefaultHistogramCap, 1000},
		{"wide_tick", 4 * DefaultHistogramCap, 20000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHistogram(0)
			v := 0.0
			observe := func(n int) {
				for ; n > 0; n-- {
					v += 0.6180339887
					h.Observe(v - float64(int(v)))
				}
			}
			observe(bc.seen)
			_ = h.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Hold the stream length, and with it the replacement rate,
				// where the case puts it however long the benchmark runs.
				h.count = uint64(bc.seen)
				observe(bc.tick)
				_ = h.Snapshot()
			}
		})
	}
}

// BenchmarkWindowedObserve measures the monitor's sliding-window recording.
func BenchmarkWindowedObserve(b *testing.B) {
	w := NewWindowedStat(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 1000))
	}
}

// BenchmarkWindowedQuantile measures the quantile query the sampler and the
// controller issue several times per control interval.
func BenchmarkWindowedQuantile(b *testing.B) {
	w := NewWindowedStat(2048)
	for i := 0; i < 4096; i++ {
		w.Observe(float64(i % 997))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 997))
		_ = w.Quantile(0.95)
	}
}

// BenchmarkWindowedQuantileP99 measures the monitor's read/write latency p99
// at its default window: one order statistic and its neighbour out of a
// wrapped 4096-sample window.
func BenchmarkWindowedQuantileP99(b *testing.B) {
	w := NewWindowedStat(4096)
	for i := 0; i < 3*4096; i++ {
		w.Observe(float64((i * 7919) % 997))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 997))
		_ = w.Quantile(0.99)
	}
}

// BenchmarkWindowedQuantilesBatch measures the batched three-quantile query
// the monitor issues on every snapshot: one sort amortised over p50/p95/p99
// instead of one sort per quantile.
func BenchmarkWindowedQuantilesBatch(b *testing.B) {
	w := NewWindowedStat(2048)
	for i := 0; i < 4096; i++ {
		w.Observe(float64(i % 997))
	}
	qs := []float64{0.50, 0.95, 0.99}
	var buf [3]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 997))
		_ = w.Quantiles(qs, buf[:0])
	}
}

// BenchmarkWindowedQuantilesSeparate is the comparison for the batch: the
// same three quantiles as three independent queries, each paying its own copy
// and selection.
func BenchmarkWindowedQuantilesSeparate(b *testing.B) {
	w := NewWindowedStat(2048)
	for i := 0; i < 4096; i++ {
		w.Observe(float64(i % 997))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i % 997))
		_ = w.Quantile(0.50)
		_ = w.Quantile(0.95)
		_ = w.Quantile(0.99)
	}
}

// BenchmarkTimeSeriesAppend measures the sampler's per-tick series append.
func BenchmarkTimeSeriesAppend(b *testing.B) {
	ts := NewTimeSeries("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Append(time.Duration(i)*time.Millisecond, float64(i))
	}
}
