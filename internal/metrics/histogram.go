package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram accumulates duration samples, in seconds, and answers quantile
// queries from fixed log-linear buckets over whole nanoseconds: one bucket
// per value below 128 ns, then 64 buckets per octave up to 2⁶³ ns, so a
// bucket's midpoint lies within 2⁻⁷ (0.79 %) of every value in it. Count,
// sum, min and max are exact. Querying changes nothing the histogram holds.
type Histogram struct {
	counts *[numBuckets]uint64 // allocated by the first observation
	count  uint64
	sum    float64
	min    float64
	max    float64
}

const (
	exactBelow = 128 // values below this many nanoseconds have a bucket each
	subBits    = 6   // log2 of the buckets per octave above exactBelow
	// Octaves 7 to 62, as many as a non-negative int64 has above exactBelow.
	numBuckets = exactBelow + (63-7)<<subBits
)

// DefaultHistogramCap was the sample count a histogram retained before it
// kept buckets. It has no effect; the benchmark harness under bench/ still
// sizes its fill loops with it.
const DefaultHistogramCap = 65536

// NewHistogram creates an empty histogram, as the zero Histogram is. The
// argument is ignored: the buckets are fixed. It remains so the benchmark
// harness keeps compiling.
func NewHistogram(int) *Histogram { return &Histogram{} }

// bucketOf is the bucket of a value in nanoseconds; negative values count
// as zero. At or above exactBelow, bits.Len64 picks the octave and the
// value's top 7 bits, 64 to 127, the bucket within it.
func bucketOf(ns int64) int {
	if ns < exactBelow {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - 1 - subBits
	return shift<<subBits + int(ns>>shift)
}

// midpoint is the middle of bucket b's range, in seconds.
func midpoint(b int) float64 {
	if b < exactBelow {
		return time.Duration(b).Seconds()
	}
	shift := b>>subBits - 1
	top := int64(b&(1<<subBits-1) | 1<<subBits) // the values' top 7 bits
	return time.Duration((2*top + 1) << (shift - 1)).Seconds()
}

// Observe records one sample, in seconds.
func (h *Histogram) Observe(v float64) {
	ns := int64(math.MaxInt64)
	if v*1e9 < math.MaxInt64 {
		ns = int64(math.Round(v * 1e9))
	}
	h.observe(v, ns)
}

// ObserveDuration records a sample expressed as a duration, in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.observe(d.Seconds(), int64(d))
}

func (h *Histogram) observe(v float64, ns int64) {
	if h.counts == nil {
		h.counts = new([numBuckets]uint64)
	}
	h.counts[bucketOf(ns)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
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
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed sample, or zero when empty.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) by interpolate's rank rule,
// each order statistic read as described at orderStats. It returns zero for
// an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	switch {
	case h.count == 0:
		return 0
	case q <= 0:
		return h.min
	case q >= 1:
		return h.max
	}
	return h.quantiles(q)[0]
}

// quantiles returns the qs-quantiles, for at most three qs in (0, 1), from
// one pass over the buckets of a histogram that is not empty.
func (h *Histogram) quantiles(qs ...float64) (out [3]float64) {
	n := int(h.count)
	var ranks [6]int
	for i, q := range qs {
		lo, _ := rank(n, q)
		ranks[2*i], ranks[2*i+1] = lo, min(lo+1, n-1)
	}
	var stats [6]float64
	h.orderStats(ranks[:2*len(qs)], stats[:])
	for i, q := range qs {
		_, frac := rank(n, q)
		out[i] = lerp(stats[2*i], stats[2*i+1], frac)
	}
	return out
}

// orderStats sets stats[i] to the ranks[i]-th smallest sample, counted from
// zero: the smallest and largest samples exactly, any other its bucket's
// midpoint clamped to [min, max].
func (h *Histogram) orderStats(ranks []int, stats []float64) {
	n, below := int(h.count), 0 // below: the samples in earlier buckets
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		first := below
		below += int(c)
		for i, r := range ranks {
			switch {
			case r < first || r >= below:
			case r == 0:
				stats[i] = h.min
			case r == n-1:
				stats[i] = h.max
			default:
				stats[i] = min(max(midpoint(b), h.min), h.max)
			}
		}
	}
}

// QuantileDuration returns the q-quantile interpreted as a duration in
// seconds.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	if h.counts != nil {
		*h.counts = [numBuckets]uint64{}
	}
	*h = Histogram{counts: h.counts}
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
	s := Snapshot{Count: h.count, Mean: h.Mean(), Min: h.min, Max: h.max}
	if h.count > 0 {
		p := h.quantiles(0.50, 0.95, 0.99)
		s.P50, s.P95, s.P99 = p[0], p[1], p[2]
	}
	return s
}

// String renders the snapshot compactly for logs and CLI output.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
