package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"autonosql/internal/memtest"
)

// bucketError is the bound on a quantile's relative error: a bucket's
// midpoint lies within 2⁻⁷ of every value in it. The factor above one allows
// for rounding nanoseconds to float seconds on both sides of the comparison.
const bucketError = 0x1p-7 * (1 + 0x1p-40)

// withinBound reports whether got lies within bucketError of exact.
func withinBound(got, exact float64) bool {
	return math.Abs(got-exact) <= bucketError*math.Abs(exact)
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be zero")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); !withinBound(got, 3) {
		t.Fatalf("p50 = %v, want 3 within 2^-7", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(0)
	h.Observe(10)
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5 (interpolated)", got)
	}
	if got := h.Quantile(0.25); got != 2.5 {
		t.Fatalf("p25 = %v, want 2.5", got)
	}
}

func TestHistogramDuration(t *testing.T) {
	h := NewHistogram(0)
	h.ObserveDuration(100 * time.Millisecond)
	h.ObserveDuration(300 * time.Millisecond)
	got := h.QuantileDuration(1)
	if got != 300*time.Millisecond {
		t.Fatalf("QuantileDuration(1) = %v, want 300ms", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(1)
	if h.Mean() != 1 {
		t.Fatalf("Mean after reset = %v, want 1", h.Mean())
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		h := NewHistogram(0)
		n := 10 + local.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(local.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return h.Quantile(0) >= h.Min()-1e-9 && h.Quantile(1) <= h.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatalf("quantile monotonicity property failed: %v", err)
	}
}

// TestHistogramBuckets walks every bucket boundary: each bucket's first and
// last value map to it, its midpoint lies within 2⁻⁷ of both, and the
// buckets tile [0, 2⁶³) without a gap.
func TestHistogramBuckets(t *testing.T) {
	next := int64(0) // the first value of the bucket expected next
	for b := range numBuckets {
		first := next
		last := int64(math.MaxInt64)
		if b+1 < numBuckets {
			width := int64(1)
			if b >= exactBelow {
				width = 1 << (b>>subBits - 1)
			}
			last = first + width - 1
		}
		if bucketOf(first) != b || bucketOf(last) != b {
			t.Fatalf("bucket %d: values %d and %d map to %d and %d", b, first, last, bucketOf(first), bucketOf(last))
		}
		mid := midpoint(b)
		for _, v := range []int64{first, last} {
			if exact := time.Duration(v).Seconds(); !withinBound(mid, exact) {
				t.Fatalf("bucket %d: midpoint %v is more than 2^-7 from %v", b, mid, exact)
			}
		}
		next = last + 1
	}
	if next != math.MinInt64 { // wrapped past MaxInt64: every value is covered
		t.Fatalf("the buckets end at %d, not at 2^63", next)
	}
	if bucketOf(-5) != 0 || midpoint(0) != 0 {
		t.Fatal("zero and negative values must share the exact bucket 0")
	}
}

// durationStream decodes a fuzz input, two bytes a step, into durations
// shaped like a run's latencies and windows: exact zeros, values below
// 128 ns, log-normal legs around a median from a nanosecond to 100 s,
// values up to 2⁶² ns, and the first values of octaves, where a bucket's
// midpoint is furthest from its values.
func durationStream(input []byte) []time.Duration {
	var out []time.Duration
	rng := rand.New(rand.NewSource(int64(len(input))))
	for i := 0; i+1 < len(input); i += 2 {
		op, arg := input[i]%5, input[i+1]
		switch op {
		case 0:
			out = append(out, 0)
		case 1:
			out = append(out, time.Duration(arg%128))
		case 2:
			median := math.Pow(10, float64(arg%12))
			for n := 1 + int(arg)%64; n > 0; n-- {
				out = append(out, time.Duration(median*math.Exp(rng.NormFloat64())))
			}
		case 3:
			out = append(out, time.Duration(rng.Uint64()>>2))
		case 4:
			out = append(out, time.Duration(1)<<(7+arg%56)+time.Duration(arg/56%3)-1)
		}
	}
	return out
}

// exactQuantile is the q-quantile (0 < q < 1) of the ascending samples in
// seconds, interpolated between the two nearest ranks.
func exactQuantile(sorted []time.Duration, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo].Seconds()
	}
	frac := pos - float64(lo)
	return sorted[lo].Seconds()*(1-frac) + sorted[lo+1].Seconds()*frac
}

// checkQuantiles holds a histogram fed stream against the stream itself:
// count, mean, min and max equal a naive recomputation, and every Snapshot
// quantile lies within 2⁻⁷ of the exact one. A second histogram, queried
// along the way, must end up identical: a query changes nothing.
func checkQuantiles(t testing.TB, stream []time.Duration) {
	t.Helper()
	h, queried := NewHistogram(0), NewHistogram(0)
	sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for i, d := range stream {
		h.ObserveDuration(d)
		queried.ObserveDuration(d)
		if i%64 == 0 {
			queried.Snapshot()
		}
		sum += d.Seconds()
		lo, hi = min(lo, d.Seconds()), max(hi, d.Seconds())
	}
	got := h.Snapshot()
	if again := queried.Snapshot(); again != got {
		t.Fatalf("a histogram queried along the way gives %+v, one never queried %+v", again, got)
	}
	if len(stream) == 0 {
		if got != (Snapshot{}) {
			t.Fatalf("empty histogram: %+v", got)
		}
		return
	}
	n := float64(len(stream))
	if got.Count != uint64(len(stream)) || got.Mean != sum/n || got.Min != lo || got.Max != hi {
		t.Fatalf("count/mean/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
			got.Count, got.Mean, got.Min, got.Max, len(stream), sum/n, lo, hi)
	}
	sorted := slices.Clone(stream)
	slices.Sort(sorted)
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		if exact := exactQuantile(sorted, c.q); !withinBound(c.got, exact) {
			t.Fatalf("p%v of %d samples = %v, exact %v: off by %.3g, bound 2^-7",
				c.q*100, len(stream), c.got, exact, math.Abs(c.got-exact)/exact)
		}
		if one := h.Quantile(c.q); one != c.got {
			t.Fatalf("Quantile(%v) = %v, Snapshot gives %v", c.q, one, c.got)
		}
	}
}

// FuzzHistogramQuantile lets the fuzzer write the duration stream that
// checkQuantiles holds the histogram to.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 5})                   // zeros and one small value
	f.Add([]byte{1, 0, 1, 127, 1, 64, 0, 0})          // the exact range
	f.Add([]byte{2, 3, 2, 100, 2, 200})               // log-normal legs
	f.Add([]byte{3, 1, 3, 2, 3, 3, 0, 0})             // up to 2^62 ns
	f.Add([]byte{4, 0, 4, 1, 4, 55, 4, 100, 4, 200})  // octave starts and their neighbours
	f.Add([]byte{0, 0, 2, 17, 1, 99, 3, 7, 4, 30, 2}) // everything at once
	f.Add([]byte{2, 0})                               // one leg of a single sample
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1024 { // at most 32 768 samples keeps a run in milliseconds
			input = input[:1024]
		}
		checkQuantiles(t, durationStream(input))
	})
}

// TestHistogramQuantileWithinBound runs checkQuantiles on longer streams than
// the fuzz seeds hold.
func TestHistogramQuantileWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		input := make([]byte, 2+rng.Intn(400))
		rng.Read(input)
		checkQuantiles(t, durationStream(input))
	}
	var raw [8]byte
	stream := make([]time.Duration, 5000)
	for i := range stream {
		rng.Read(raw[:])
		stream[i] = time.Duration(binary.LittleEndian.Uint64(raw[:]) >> (2 + i%60))
	}
	checkQuantiles(t, stream)
}

// TestHistogramGrowthBytes pins what a histogram allocates as it fills: its
// one counts array at the first observation, whatever the sample count.
func TestHistogramGrowthBytes(t *testing.T) {
	const counts = numBuckets * 8
	for _, samples := range []int{1, 1000, 1 << 20} {
		bytes, mallocs := memtest.Growth(func(measure func(func())) {
			h := NewHistogram(0)
			measure(func() {
				for i := range samples {
					h.ObserveDuration(time.Duration(i) * 977)
				}
			})
		})
		t.Logf("%d observations allocated %d B in %d objects", samples, bytes, mallocs)
		// 29 KiB of counts round up to the 32 KiB size class.
		if mallocs != 1 || bytes < counts || bytes > 32<<10 {
			t.Errorf("%d observations allocated %d B in %d objects, want the %d B counts array alone", samples, bytes, mallocs, counts)
		}
	}
}

// TestHistogramFirstQueryScratch pins what a query allocates: nothing, on
// the first query of a filled histogram (how the per-tenant histograms meet
// theirs, in the final report) and on every later one.
func TestHistogramFirstQueryScratch(t *testing.T) {
	for _, samples := range []int{1, 10000, 1 << 20} {
		bytes, mallocs := memtest.Growth(func(measure func(func())) {
			h := NewHistogram(0)
			for i := range samples {
				h.ObserveDuration(time.Duration(i) * 977)
			}
			measure(func() {
				_ = h.Quantile(0.5)
				_ = h.Snapshot()
			})
		})
		if bytes != 0 || mallocs != 0 {
			t.Errorf("first queries after %d observations allocated %d B in %d objects, want none", samples, bytes, mallocs)
		}
	}
	h := NewHistogram(0)
	for i := range 10000 {
		h.ObserveDuration(time.Duration(i) * time.Microsecond)
	}
	query := func() {
		h.ObserveDuration(time.Millisecond)
		_ = h.Snapshot()
		_ = h.Quantile(0.9)
	}
	if avg := testing.AllocsPerRun(100, query); avg != 0 {
		t.Errorf("an observation and two queries allocate %.1f objects, want 0", avg)
	}
}

// TestHistogramSnapshotAllocFree pins the steady state of a sampling tick: a
// thousand observes between snapshots allocate nothing once the counts
// exist.
func TestHistogramSnapshotAllocFree(t *testing.T) {
	h := NewHistogram(0)
	v := 0.0
	tick := func() {
		for i := 0; i < 1000; i++ {
			v += 0.37
			h.Observe(math.Mod(v, 5))
		}
		_ = h.Snapshot()
	}
	tick()
	if avg := testing.AllocsPerRun(50, tick); avg != 0 {
		t.Errorf("steady-state snapshot allocates %.1f objects per tick, want 0", avg)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.P50 < 49 || s.P50 > 52 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Snapshot.String() is empty")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("new EWMA should not be initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10", got)
	}
	if got := e.Update(20); got != 15 {
		t.Fatalf("second update = %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Fatal("Reset did not clear EWMA")
	}
}

func TestEWMAClampsAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 2} {
		e := NewEWMA(alpha)
		e.Update(1)
		e.Update(2)
		v := e.Value()
		if math.IsNaN(v) || v < 1 || v > 2 {
			t.Fatalf("alpha=%v produced out-of-range value %v", alpha, v)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Update(7)
	}
	if math.Abs(e.Value()-7) > 1e-9 {
		t.Fatalf("EWMA of constant stream = %v, want 7", e.Value())
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Counter reset failed")
	}
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Gauge = %v, want 3.5", g.Value())
	}
}
