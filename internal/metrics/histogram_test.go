package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"autonosql/internal/memtest"
)

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
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
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

func TestHistogramReservoirKeepsDistribution(t *testing.T) {
	h := NewHistogram(1000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.Float64() * 100)
	}
	if h.Count() != 100000 {
		t.Fatalf("Count = %d, want 100000", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 of uniform(0,100) = %v, want roughly 50", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90 {
		t.Fatalf("p99 of uniform(0,100) = %v, want > 90", p99)
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

// refHistogram is the reservoir as it was before it kept its order
// incrementally: any Observe clears sorted, and the next interior quantile
// re-sorts everything and interpolates between floor and ceil. It is the
// reference the differential tests hold Histogram to.
type refHistogram struct {
	samples  []float64
	count    uint64
	min, max float64
	cap      int
	sorted   bool
	rng      uint64
}

func (r *refHistogram) observe(v float64) {
	r.count++
	r.min, r.max = math.Min(r.min, v), math.Max(r.max, v)
	r.sorted = false
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if idx := r.rng % r.count; idx < uint64(r.cap) {
		r.samples[idx] = v
	}
}

func (r *refHistogram) quantile(q float64) float64 {
	switch {
	case len(r.samples) == 0:
		return 0
	case q <= 0:
		return r.min
	case q >= 1:
		return r.max
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	pos := q * float64(len(r.samples)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return r.samples[lo]
	}
	frac := pos - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[hi]*frac
}

var orderScriptQs = []float64{-1, 0, 0.01, 0.5, 0.95, 0.99, 0.999, 1, 2}

// runOrderScript drives a Histogram and the reference with the operations
// script encodes, two bytes each, and fails on the first difference in a
// quantile or, after any operation, in the retained array: neither side moves
// a sample except when an interior quantile orders them, so the two arrays
// must agree slot for slot at all times, not only as sets.
func runOrderScript(t testing.TB, capacity int, script []byte) {
	t.Helper()
	h := NewHistogram(capacity)
	fresh := refHistogram{min: math.Inf(1), max: math.Inf(-1), cap: capacity, rng: h.rngState}
	ref := fresh
	lcg := uint64(1)
	var retained []float64
	query := func(step int, q float64) {
		if got, want := h.Quantile(q), ref.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cap %d step %d: Quantile(%v) = %v, full sort gives %v", capacity, step, q, got, want)
		}
	}
	observe := func(v float64) {
		h.Observe(v)
		ref.observe(v)
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, script[i+1]
		switch op {
		case 0, 1: // one of 16 values, +0 among them: duplicates everywhere
			observe(float64(arg%16) / 4)
		case 2: // a value of its own
			observe(float64(i)*256 + float64(arg))
		case 3: // a burst, to carry the larger caps past their boundary
			for n := 1 + int(arg)*8; n > 0; n-- {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				observe(float64(lcg>>54) / 32)
			}
		case 4, 5:
			query(i, orderScriptQs[int(arg)%len(orderScriptQs)])
		case 6:
			got := h.Snapshot()
			want := [3]float64{ref.quantile(0.50), ref.quantile(0.95), ref.quantile(0.99)}
			if [3]float64{got.P50, got.P95, got.P99} != want || got.Count != ref.count {
				t.Fatalf("cap %d step %d: Snapshot = %+v, full sort gives %v of %d", capacity, i, got, want, ref.count)
			}
		case 7:
			if arg%4 != 0 { // mostly two queries back to back, sometimes a Reset
				query(i, 0.5)
				query(i, 0.9)
			} else {
				h.Reset()
				rng := ref.rng // Reset keeps the replacement stream where it is
				ref = fresh
				ref.rng = rng
			}
		}
		if h.n != len(ref.samples) {
			t.Fatalf("cap %d step %d: %d samples retained, reference retains %d", capacity, i, h.n, len(ref.samples))
		}
		retained = h.appendSlots(retained[:0], 0, h.n)
		for j, v := range retained {
			if math.Float64bits(v) != math.Float64bits(ref.samples[j]) {
				t.Fatalf("cap %d step %d: slot %d holds %v, reference holds %v", capacity, i, j, v, ref.samples[j])
			}
		}
	}
}

// orderCaps runs one segment, cut or whole, and then several: a cap that
// cuts its last segment short, and the default's five.
var orderCaps = []int{1, 2, 64, 4096, 5*4096 + 17, DefaultHistogramCap}

// TestHistogramOrderMatchesFullSort is the differential test behind the
// byte-identity claim: random interleavings of Observe, Quantile, Snapshot
// and Reset, across the cap boundary of every cap, leave exactly the array a
// full sort on every query would.
func TestHistogramOrderMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, capacity := range orderCaps {
		for round := 0; round < 20; round++ {
			script := make([]byte, 600)
			rng.Read(script)
			runOrderScript(t, capacity, script)
		}
	}
	// Nothing but queries, and queries only after a Reset.
	runOrderScript(t, 64, []byte{4, 3, 6, 0, 7, 1, 0, 0, 7, 0, 4, 3, 6, 0})
}

// FuzzHistogramOrder lets the fuzzer write the operation script: the first
// byte picks the cap, the rest is the script runOrderScript interprets.
func FuzzHistogramOrder(f *testing.F) {
	f.Add([]byte{0, 0, 5, 4, 3, 0, 5, 4, 3})
	f.Add([]byte{1, 0, 0, 0, 0, 4, 3, 0, 0, 0, 0, 4, 3, 7, 0, 4, 3})
	f.Add([]byte{2, 3, 8, 4, 3, 3, 1, 4, 3, 3, 1, 4, 3, 0, 0, 6, 0})        // cap 64 filled, then ticks of 9 observes
	f.Add([]byte{2, 3, 7, 4, 3, 3, 1, 3, 1, 3, 1, 7, 1, 1, 0, 1, 0, 4, 3})  // crosses cap 64 between two queries
	f.Add([]byte{3, 3, 255, 3, 255, 4, 3, 3, 255, 6, 0, 3, 20, 4, 2, 7, 0}) // cap 4096 from empty to replacement
	// cap 5*4096+17: queried inside segment 0, then across the 4096 and 8192
	// segment boundaries, then past the cap with replacements between queries
	f.Add([]byte{4, 3, 255, 4, 3, 3, 255, 4, 3, 3, 255, 3, 255, 6, 0,
		3, 255, 3, 255, 3, 255, 3, 255, 3, 255, 3, 255, 4, 3, 3, 255, 4, 2, 0, 0, 6, 0})
	f.Add([]byte{5, 3, 255, 3, 255, 3, 255, 6, 0, 3, 255, 4, 3}) // default cap, first queried across a boundary
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		runOrderScript(t, orderCaps[int(script[0])%len(orderCaps)], script[1:])
	})
}

// TestHistogramQueryTimesAreInput states the semantic the scenario sampler
// depends on: past the cap, replacement addresses slots of the array in the
// order the last query left it, so a histogram that was queried mid-stream
// retains a different subset than one that was not. Dropping or moving a
// query is a change to a run's results, not only to its cost.
func TestHistogramQueryTimesAreInput(t *testing.T) {
	queried, unqueried := NewHistogram(64), NewHistogram(64)
	for i := 0; i < 1000; i++ {
		v := float64((i * 7919) % 1009)
		queried.Observe(v)
		unqueried.Observe(v)
		if i == 500 {
			queried.Quantile(0.5)
		}
	}
	queried.Quantile(0.5)
	unqueried.Quantile(0.5)
	same := true
	for i := range queried.n {
		same = same && queried.at(i) == unqueried.at(i)
	}
	if same {
		t.Fatal("a mid-stream query left the retained set unchanged; query times are expected to be part of the result")
	}
}

// TestHistogramGrowthBytes pins the reservoir's storage: filling a default
// histogram to 1.1x its cap allocates the samples it retains and nothing
// more, in five segments, besides the Histogram and its directory of
// segments. Growing one array by doubling would allocate 4096 + 8192 + ... +
// 65536 samples, nearly twice what it keeps, copying them on each step.
func TestHistogramGrowthBytes(t *testing.T) {
	// Each reading fills a fresh reservoir.
	var h *Histogram
	bytes, mallocs := memtest.Growth(func(measure func(func())) {
		measure(func() {
			h = NewHistogram(0)
			for i := 0; i < DefaultHistogramCap*11/10; i++ {
				h.Observe(float64(i))
			}
		})
	})
	const sample, segments = 8, 5
	const overhead = 512 // the Histogram and its directory, in their size classes
	t.Logf("a full default reservoir (%d samples) allocated %d B in %d objects", DefaultHistogramCap, bytes, mallocs)
	if limit := uint64(DefaultHistogramCap*sample + overhead); bytes > limit {
		t.Errorf("filling a default histogram to 1.1x cap allocated %d B, want at most %d", bytes, limit)
	}
	if mallocs != 2+segments {
		t.Errorf("filling a default histogram made %d allocations, want %d segments + the Histogram + its directory", mallocs, segments)
	}
	if h.n != DefaultHistogramCap || len(h.segs) != segments {
		t.Errorf("reservoir holds %d samples in %d segments, want %d in %d", h.n, len(h.segs), DefaultHistogramCap, segments)
	}
}

// TestHistogramFirstQueryScratch pins the first order of a reservoir that
// spans several segments, which is how the per-tenant reservoirs meet their
// first query, in the final report: each segment is merged into the run
// before it through a copy of the segment, never longer than that run, so
// the scratch is at most half the retained samples, not a second reservoir.
func TestHistogramFirstQueryScratch(t *testing.T) {
	// As in TestHistogramGrowthBytes, each reading queries a fresh full
	// reservoir and the smallest of three is the query's own.
	var h *Histogram
	got := uint64(math.MaxUint64)
	for range 3 {
		h = NewHistogram(0)
		rng := rand.New(rand.NewSource(3))
		for range DefaultHistogramCap {
			h.Observe(rng.Float64())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.Quantile(0.5)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(DefaultHistogramCap * 8 / 2); got > limit {
		t.Errorf("first query of a full default reservoir allocated %d B, want at most %d", got, limit)
	}
	for i := 1; i < h.n; i++ {
		if h.at(i) < h.at(i-1) {
			t.Fatalf("slot %d holds %v after slot %d's %v: not ascending", i, h.at(i), i-1, h.at(i-1))
		}
	}
}

// TestHistogramSnapshotAllocFree pins the steady state of the sampling tick:
// a reservoir at its cap, a thousand observes between snapshots, and after
// the first snapshot has sized the scratch no allocation at all.
func TestHistogramSnapshotAllocFree(t *testing.T) {
	h := NewHistogram(4096)
	v := 0.0
	tick := func() {
		for i := 0; i < 1000; i++ {
			v += 0.37
			h.Observe(math.Mod(v, 5))
		}
		_ = h.Snapshot()
	}
	for h.n < 4096 {
		tick()
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
