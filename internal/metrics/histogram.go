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
// The retained samples live in segments that are allocated as the reservoir
// fills and never move: segment 0 holds slots [0, 4096) and segment s >= 1
// holds slots [4096·2^(s-1), 4096·2^s), the last one cut at the cap. A full
// reservoir has allocated exactly the samples it retains, in as many
// allocations (five at the default cap) as doubling one array would take.
//
// A quantile query leaves the retained samples in ascending order, and past
// the cap reservoir replacement addresses slots of that array, so when a
// histogram is queried is part of what it retains: fed one stream but queried
// at different points, two histograms keep different (equally uniform)
// subsets. A caller that reproduces runs bit for bit must keep its query times.
type Histogram struct {
	segs  [][]float64 // the segments allocated so far, each at its full length
	n     int         // retained samples: slots [0, n)
	count uint64
	sum   float64
	min   float64
	max   float64
	cap   int
	// Slots [0, ordered) were ascending after the last quantile query and
	// have since been overwritten only at the ndirty slots whose bits are set
	// in dirty, a bitmap of one bit per slot allocated at the first such
	// replacement; slots [ordered, n) were appended after that query.
	ordered  int
	dirty    []uint64
	ndirty   int
	scratch  []float64 // the changed values while order merges them back
	rngState uint64
}

// DefaultHistogramCap is the default maximum number of retained samples.
const DefaultHistogramCap = 65536

// seg0Len is the length of segment 0, and segShift its log2.
const (
	seg0Len  = 4096
	segShift = 12
)

// locate maps slot i to its segment and its offset in that segment.
func locate(i int) (seg, off int) {
	seg = bits.Len(uint(i) >> segShift)
	return seg, i - segBase(seg)
}

// segBase is the first slot of segment s: 0, then 4096·2^(s-1).
func segBase(s int) int {
	return (seg0Len >> 1 << s) &^ (seg0Len - 1)
}

// NewHistogram creates a histogram retaining at most cap samples. A cap of
// zero or less uses DefaultHistogramCap.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		cap = DefaultHistogramCap
	}
	last, _ := locate(cap - 1)
	segs := make([][]float64, 1, last+1)
	segs[0] = make([]float64, min(cap, seg0Len))
	return &Histogram{
		segs:     segs,
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
	if n := h.n; n < h.cap {
		s, off := locate(n)
		if s == len(h.segs) {
			// Segment s >= 1 is as long as all before it together.
			h.segs = append(h.segs, make([]float64, min(n, h.cap-n)))
		}
		h.segs[s][off] = v
		h.n = n + 1
		return
	}
	// Reservoir sampling: replace a random existing sample with probability
	// cap/count, preserving a uniform sample of the stream.
	idx := h.nextRand() % h.count
	if idx < uint64(h.cap) {
		s, off := locate(int(idx))
		h.segs[s][off] = v
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
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	h.order()
	return interpolate(h.n, q, h.at)
}

// at returns the sample in slot i.
func (h *Histogram) at(i int) float64 {
	s, off := locate(i)
	return h.segs[s][off]
}

// shiftDown moves n slots from the read position (rs, ri) to the write
// position (ws, wi), which is not above it, as one memmove would, in one copy
// per piece that lies within a single segment on both sides, and returns both
// positions advanced by n. A position may sit at the end of its segment.
func (h *Histogram) shiftDown(ws, wi, rs, ri, n int) (int, int, int, int) {
	for n > 0 {
		if wi == len(h.segs[ws]) {
			ws, wi = ws+1, 0
		}
		if ri == len(h.segs[rs]) {
			rs, ri = rs+1, 0
		}
		l := min(len(h.segs[ws])-wi, len(h.segs[rs])-ri, n)
		copy(h.segs[ws][wi:wi+l], h.segs[rs][ri:ri+l])
		wi, ri, n = wi+l, ri+l, n-l
	}
	return ws, wi, rs, ri
}

// order sorts the retained samples ascending, producing the array a full
// sort would. With nothing changed since the last call it returns at once.
// Otherwise the overwritten slots are lifted out of the ordered prefix, which
// is closed up behind them run by run, sorted together with the appended
// tail, and merged back by mergeBack's block moves. On a tie the kept value
// goes after the changed one, so equal-comparing values (±0, NaNs) keep their
// order. Scratch never holds more than what changed between two queries or,
// on the first query of a reservoir that spans several segments, half of
// what it retains.
func (h *Histogram) order() {
	switch {
	case h.ordered == h.n && h.ndirty == 0:
		return
	case h.ordered == 0:
		h.sortSegments()
	default:
		changed := h.scratch[:0]
		ws, wi, rs, ri := 0, 0, 0, 0 // the next slot written and the next read
		from := 0                    // the slot at (rs, ri)
		for w := 0; len(changed) < h.ndirty; w++ {
			for word := h.dirty[w]; word != 0; word &= word - 1 {
				d := w*64 + bits.TrailingZeros64(word)
				ws, wi, rs, ri = h.shiftDown(ws, wi, rs, ri, d-from)
				if ri == len(h.segs[rs]) {
					rs, ri = rs+1, 0
				}
				changed = append(changed, h.segs[rs][ri])
				ri, from = ri+1, d+1
			}
			h.dirty[w] = 0
		}
		h.shiftDown(ws, wi, rs, ri, h.ordered-from)
		clean := h.ordered - len(changed)
		changed = h.appendSlots(changed, h.ordered, h.n)
		slices.Sort(changed)
		h.mergeBack(changed, clean)
		h.scratch = changed
	}
	h.ordered, h.ndirty = h.n, 0
}

// appendSlots appends slots [from, to) to dst, growing it at most once.
func (h *Histogram) appendSlots(dst []float64, from, to int) []float64 {
	dst = slices.Grow(dst, to-from)
	for from < to {
		s, off := locate(from)
		l := min(len(h.segs[s])-off, to-from)
		dst = append(dst, h.segs[s][off:off+l]...)
		from += l
	}
	return dst
}

// sortSegments orders a reservoir that no query has ordered yet: each segment
// is sorted in place and merged into the sorted run of the segments before
// it, from a copy of the segment in scratch. The copy is never longer than
// the run it joins, so never more than half of what is retained.
func (h *Histogram) sortSegments() {
	last, _ := locate(h.n - 1)
	slices.Sort(h.segs[0][:min(h.n, len(h.segs[0]))])
	if last == 0 {
		return
	}
	// The longest copy: the last segment's samples, or the full one before.
	if longest := max(h.n-segBase(last), segBase(last-1)); cap(h.scratch) < longest {
		h.scratch = make([]float64, 0, longest)
	}
	buf := h.scratch[:0]
	for s := 1; s <= last; s++ {
		tail := h.segs[s][:min(h.n-segBase(s), len(h.segs[s]))]
		slices.Sort(tail)
		buf = append(buf[:0], tail...)
		h.mergeBack(buf, segBase(s))
	}
}

// mergeBack merges the ascending buf into the ascending slots [0, kept),
// leaving slots [0, kept+len(buf)) ascending, in one pass from the top down
// that puts the kept value above the buf one on a tie. For each buf value,
// largest first, it gallops down the kept slots to the run of them that is
// not below the value, moves that run up in one copy per segment piece and
// drops the value in under it: a run of g slots costs O(log g) comparisons
// and one copy, where an element merge compares and moves every slot. Slots
// are written from the top down and never below the kept slot read next, and
// once buf is spent the rest of the kept slots are already in place.
func (h *Histogram) mergeBack(buf []float64, kept int) {
	rs, ri := 0, -1 // the kept slots not yet read: segment rs up to offset ri
	if kept > 0 {
		rs, ri = locate(kept - 1)
	}
	ws, wi := locate(kept + len(buf) - 1) // the next slot written
	for j := len(buf) - 1; j >= 0; j-- {
		c := buf[j]
		for {
			r := h.segs[rs][:ri+1]
			for g := keptAbove(r, c); g > 0; {
				if wi < 0 {
					ws--
					wi = len(h.segs[ws]) - 1
				}
				n := min(g, wi+1)
				copy(h.segs[ws][wi+1-n:wi+1], r[ri+1-n:ri+1])
				wi, ri, g = wi-n, ri-n, g-n
			}
			if ri >= 0 || rs == 0 {
				break
			}
			// Segment rs is spent: c's place may lie below it.
			rs--
			ri = len(h.segs[rs]) - 1
		}
		if wi < 0 {
			ws--
			wi = len(h.segs[ws]) - 1
		}
		h.segs[ws][wi] = c
		wi--
	}
}

// keptAbove counts the values at the top of the ascending r that are not
// below c. It gallops down from the top in doubling steps, then searches the
// last step, so a count of g takes O(log g) comparisons.
func keptAbove(r []float64, c float64) int {
	lo, top := 0, len(r) // r[top:] is not below c, and r[:lo] is below it
	for step := 1; top > 0; step *= 2 {
		i := max(top-step, 0)
		if cmp.Less(r[i], c) {
			lo = i + 1
			break
		}
		top = i
	}
	for lo < top {
		m := int(uint(lo+top) >> 1)
		if cmp.Less(r[m], c) {
			lo = m + 1
		} else {
			top = m
		}
	}
	return len(r) - top
}

// QuantileDuration returns the q-quantile interpreted as a duration in
// seconds.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.n = 0
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
