package metrics

import (
	"sort"
	"time"
)

// Point is a single (virtual time, value) observation.
type Point struct {
	At    time.Duration
	Value float64
}

// TimeSeries stores timestamped observations in arrival order. Experiments
// use it to record how metrics such as the inconsistency window, cluster
// size or cost evolve over a run, and to render figure-like series output.
type TimeSeries struct {
	name   string
	points []Point
}

// NewTimeSeries creates an empty named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Append records a point. Points are expected in non-decreasing time order;
// out-of-order points are accepted but sorted lazily on query.
func (ts *TimeSeries) Append(at time.Duration, value float64) {
	ts.points = append(ts.points, Point{At: at, Value: value})
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Points returns a copy of the stored points sorted by time.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Last returns the most recently appended point and whether one exists.
func (ts *TimeSeries) Last() (Point, bool) {
	if len(ts.points) == 0 {
		return Point{}, false
	}
	return ts.points[len(ts.points)-1], true
}

// Mean returns the mean of all values (zero when empty).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ts.points {
		sum += p.Value
	}
	return sum / float64(len(ts.points))
}

// Max returns the maximum value (zero when empty).
func (ts *TimeSeries) Max() float64 {
	max := 0.0
	for i, p := range ts.points {
		if i == 0 || p.Value > max {
			max = p.Value
		}
	}
	return max
}

// WindowedStat maintains summary statistics over a sliding window of the
// last N samples. Controllers use it to look at recent behaviour only.
type WindowedStat struct {
	size   int
	buf    []float64
	next   int
	filled bool
	// scratch is the reusable copy quantile queries select from or sort;
	// they run several times per sampling interval over windows of
	// thousands of samples.
	scratch []float64
}

// NewWindowedStat creates a sliding window over the last size samples.
func NewWindowedStat(size int) *WindowedStat {
	if size <= 0 {
		size = 1
	}
	return &WindowedStat{size: size, buf: make([]float64, size)}
}

// Observe records a sample, evicting the oldest when full.
func (w *WindowedStat) Observe(v float64) {
	w.buf[w.next] = v
	w.next++
	if w.next == w.size {
		w.next = 0
		w.filled = true
	}
}

// Count returns the number of samples currently in the window.
func (w *WindowedStat) Count() int {
	if w.filled {
		return w.size
	}
	return w.next
}

func (w *WindowedStat) values() []float64 {
	if w.filled {
		return w.buf
	}
	return w.buf[:w.next]
}

// Mean returns the mean of the samples in the window.
func (w *WindowedStat) Mean() float64 {
	vs := w.values()
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Max returns the maximum sample in the window.
func (w *WindowedStat) Max() float64 {
	vs := w.values()
	max := 0.0
	for i, v := range vs {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Quantile returns the q-quantile of the window contents, bit for bit what
// Quantiles returns for the same q. Interpolation reads two adjacent order
// statistics, so the copy is not sorted: the lower one is selected in O(n)
// and the upper is the smallest value the selection left to its right.
func (w *WindowedStat) Quantile(q float64) float64 {
	cp := w.copyToScratch()
	if len(cp) == 0 {
		return 0
	}
	lo := int(min(max(q, 0), 1) * float64(len(cp)-1))
	selectKth(cp, lo)
	selectKth(cp[lo+1:], 0)
	return quantileOfSorted(cp, q)
}

// Quantiles appends the qs[i]-quantiles of the window contents to dst and
// returns the extended slice, one result per requested quantile in order.
// The window is copied and sorted exactly once, so a sampler that reads
// several quantiles per report interval (p50/p95/p99) pays one O(n log n)
// sort instead of one per quantile. Callers on a hot path pass a reused
// buffer (sliced to [:0]) with capacity len(qs) to stay allocation-free.
func (w *WindowedStat) Quantiles(qs []float64, dst []float64) []float64 {
	cp := w.copyToScratch()
	sort.Float64s(cp)
	for _, q := range qs {
		if len(cp) == 0 {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, quantileOfSorted(cp, q))
	}
	return dst
}

// copyToScratch copies the window contents into the reusable scratch buffer.
// The result is valid until the next quantile query.
func (w *WindowedStat) copyToScratch() []float64 {
	w.scratch = append(w.scratch[:0], w.values()...)
	return w.scratch
}

// selectKth rearranges a so that a[k] holds the value a full sort would put
// there, with nothing larger to its left and nothing smaller to its right.
// It is a quickselect whose pivot is the median of the first, middle and last
// value (no random source, so a run stays reproducible) and whose Hoare
// partition stops on values equal to the pivot, which keeps all-equal and
// few-valued windows (a window of +0 inconsistency samples) linear.
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] <= pivot <= a[i:hi+1], and anything between is the pivot.
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// quantileOfSorted interpolates the q-quantile over an already sorted,
// non-empty sample slice.
func quantileOfSorted(cp []float64, q float64) float64 {
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	return interpolate(len(cp), q, func(i int) float64 { return cp[i] })
}

// interpolate is the q-quantile (0 < q < 1) of n ascending samples, read
// through at, by linear interpolation between the two nearest ranks. It and
// Histogram's quantiles share rank and lerp, so every quantile here follows
// one rule, and batched and one-shot queries agree bit for bit.
func interpolate(n int, q float64, at func(int) float64) float64 {
	lo, frac := rank(n, q)
	if lo+1 >= n {
		return at(lo)
	}
	return lerp(at(lo), at(lo+1), frac)
}

// rank places the q-quantile (0 < q < 1) of n ascending samples frac of the
// way from the order statistic lo, counted from zero, to the next.
func rank(n int, q float64) (lo int, frac float64) {
	pos := float64(q * float64(n-1))
	lo = int(pos)
	return lo, pos - float64(lo)
}

// lerp interpolates frac of the way from a to b. The explicit conversions
// round each product on its own, so no port fuses them into a multiply-add.
func lerp(a, b, frac float64) float64 {
	return float64(a*(1-frac)) + float64(b*frac)
}
