package metrics

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures the per-sample recording cost on the
// store's latency/window path.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(0)
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

// BenchmarkHistogramSnapshot measures the report-facing aggregation: one
// pass over the buckets for three quantiles.
func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram(0)
	for i := 0; i < 8192; i++ {
		h.Observe(float64(i%997) * 0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i) * 0.0001)
		_ = h.Snapshot()
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
