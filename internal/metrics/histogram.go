// Package metrics provides the measurement primitives used throughout the
// autonosql simulator: duration histograms with percentile estimation,
// exponentially weighted moving averages, counters, gauges, time series and
// windowed aggregation.
//
// The package is deliberately dependency-free and allocation-conscious: the
// simulator records millions of samples per experiment, and the controller
// consumes aggregated snapshots of these structures every control interval.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Histogram accumulates float64 samples and answers quantile queries.
//
// Samples are kept exactly (not sketched) up to a configurable cap, after
// which reservoir sampling keeps an unbiased subset. This keeps percentile
// estimates accurate for the sample volumes produced by experiments while
// bounding memory.
//
// A quantile query leaves the retained samples in ascending order, and past
// the cap reservoir replacement addresses slots of that array, so when a
// histogram is queried is part of what it retains: fed one stream but queried
// at different points, two histograms keep different (equally uniform)
// subsets. A caller that reproduces runs bit for bit must keep its query times.
type Histogram struct {
	samples []float64
	count   uint64
	sum     float64
	min     float64
	max     float64
	cap     int
	// samples[:ordered] was ascending after the last quantile query and has
	// since been overwritten only at the ndirty slots whose bits are set in
	// dirty, a bitmap of one bit per slot allocated at the first such
	// replacement; samples[ordered:] was appended after that query.
	ordered  int
	dirty    []uint64
	ndirty   int
	scratch  []float64 // the changed values while order merges them back
	rngState uint64
}

// DefaultHistogramCap is the default maximum number of retained samples.
const DefaultHistogramCap = 65536

// NewHistogram creates a histogram retaining at most cap samples. A cap of
// zero or less uses DefaultHistogramCap.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		cap = DefaultHistogramCap
	}
	return &Histogram{
		samples:  make([]float64, 0, min(cap, 4096)),
		min:      math.Inf(1),
		max:      math.Inf(-1),
		cap:      cap,
		rngState: 0x853c49e6748fea9b,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if n := len(h.samples); n < h.cap {
		if n == cap(h.samples) {
			// Double, up to the cap: a full reservoir has then allocated
			// about twice what it retains, and never more than it can hold.
			grown := make([]float64, n, min(2*n, h.cap))
			copy(grown, h.samples)
			h.samples = grown
		}
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir sampling: replace a random existing sample with probability
	// cap/count, preserving a uniform sample of the stream.
	idx := h.nextRand() % h.count
	if idx < uint64(h.cap) {
		h.samples[idx] = v
		if idx < uint64(h.ordered) {
			if h.dirty == nil {
				h.dirty = make([]uint64, (h.cap+63)/64)
			}
			if w, bit := idx/64, uint64(1)<<(idx%64); h.dirty[w]&bit == 0 {
				h.dirty[w] |= bit
				h.ndirty++
			}
		}
	}
}

// ObserveDuration records a sample expressed as a duration, in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// nextRand is a small xorshift generator private to the histogram so that
// reservoir replacement is deterministic for a deterministic input stream.
func (h *Histogram) nextRand() uint64 {
	x := h.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rngState = x
	return x
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean of all observed samples, or zero when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observed sample, or zero when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample, or zero when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) of the retained samples using
// linear interpolation. It returns zero for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	h.order()
	return quantileOfSorted(h.samples, q)
}

// order sorts samples ascending, producing the array a full sort would, in
// O(n + k log k) for the k values that changed since the last call, and at
// once when none did: the overwritten slots are lifted out of the ordered
// prefix, which is closed up behind them, and sorted together with the
// appended tail; one backward pass then merges the two. On a tie the kept
// value goes after the changed one, where a binary search for the changed
// value would put it, so equal-comparing values (±0, NaNs) keep their order.
// With nothing ordered yet it is a plain in-place sort, so scratch never
// holds more than what changed between two queries.
func (h *Histogram) order() {
	s := h.samples
	switch {
	case h.ordered == len(s) && h.ndirty == 0:
		return
	case h.ordered == 0:
		slices.Sort(s)
	default:
		changed := h.scratch[:0]
		clean, from := 0, 0 // s[:clean] holds what s[:from] kept of its order
		for w := 0; len(changed) < h.ndirty; w++ {
			for word := h.dirty[w]; word != 0; word &= word - 1 {
				d := w*64 + bits.TrailingZeros64(word)
				changed = append(changed, s[d])
				clean += copy(s[clean:], s[from:d])
				from = d + 1
			}
			h.dirty[w] = 0
		}
		clean += copy(s[clean:], s[from:h.ordered])
		changed = append(changed, s[h.ordered:]...)
		slices.Sort(changed)
		for i, j, k := clean-1, len(changed)-1, len(s)-1; j >= 0; k-- {
			if i >= 0 && !cmp.Less(s[i], changed[j]) {
				s[k], i = s[i], i-1
			} else {
				s[k], j = changed[j], j-1
			}
		}
		h.scratch = changed
	}
	h.ordered, h.ndirty = len(s), 0
}

// QuantileDuration returns the q-quantile interpreted as a duration in
// seconds.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
	h.ordered, h.ndirty = 0, 0
	clear(h.dirty)
}

// Snapshot captures the common summary statistics of a histogram.
type Snapshot struct {
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Snapshot returns summary statistics for the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// String renders the snapshot compactly for logs and CLI output.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
