package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries("window")
	if ts.Name() != "window" {
		t.Fatalf("Name = %q", ts.Name())
	}
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty series should report false")
	}
	ts.Append(1*time.Second, 10)
	ts.Append(2*time.Second, 20)
	ts.Append(3*time.Second, 30)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ts.Len())
	}
	if ts.Mean() != 20 {
		t.Fatalf("Mean = %v, want 20", ts.Mean())
	}
	if ts.Max() != 30 {
		t.Fatalf("Max = %v, want 30", ts.Max())
	}
	last, ok := ts.Last()
	if !ok || last.Value != 30 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestTimeSeriesBetweenAndSorting(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Append(3*time.Second, 3)
	ts.Append(1*time.Second, 1)
	ts.Append(2*time.Second, 2)
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatal("Points() not sorted by time")
		}
	}
}

func TestWindowedStat(t *testing.T) {
	w := NewWindowedStat(3)
	if w.Count() != 0 || w.Mean() != 0 || w.Max() != 0 {
		t.Fatal("empty window should report zeros")
	}
	w.Observe(1)
	w.Observe(2)
	w.Observe(3)
	w.Observe(10) // evicts 1
	if w.Count() != 3 {
		t.Fatalf("Count = %d, want 3", w.Count())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if w.Max() != 10 {
		t.Fatalf("Max = %v, want 10", w.Max())
	}
	if q := w.Quantile(1); q != 10 {
		t.Fatalf("p100 = %v, want 10", q)
	}
	if q := w.Quantile(0); q != 2 {
		t.Fatalf("p0 = %v, want 2", q)
	}
}

// TestWindowedStatQuantilesMatchQuantile pins that the batched query is
// bit-for-bit identical to repeated one-shot queries: the monitor switched
// the sampler's p50/p95/p99 reads to one batch, and any divergence would
// break the golden-report fingerprints.
func TestWindowedStatQuantilesMatchQuantile(t *testing.T) {
	w := NewWindowedStat(64)
	qs := []float64{0, 0.25, 0.50, 0.95, 0.99, 1}
	check := func() {
		t.Helper()
		got := w.Quantiles(qs, nil)
		if len(got) != len(qs) {
			t.Fatalf("Quantiles returned %d values for %d quantiles", len(got), len(qs))
		}
		for i, q := range qs {
			if want := w.Quantile(q); got[i] != want {
				t.Fatalf("Quantiles[%v] = %v, Quantile = %v", q, got[i], want)
			}
		}
	}
	check() // empty window: all zeros
	for i := 0; i < 100; i++ {
		w.Observe(float64((i * 37) % 101))
	}
	check()
}

// TestWindowedStatQuantilesAllocFree pins the sampler-facing contract: a
// batched quantile query over a warmed window with a reused result buffer
// performs zero allocations.
func TestWindowedStatQuantilesAllocFree(t *testing.T) {
	w := NewWindowedStat(2048)
	for i := 0; i < 4096; i++ {
		w.Observe(float64(i % 997))
	}
	qs := []float64{0.50, 0.95, 0.99}
	var buf [3]float64
	w.Quantiles(qs, buf[:0]) // warm the sort scratch
	avg := testing.AllocsPerRun(100, func() {
		w.Observe(1)
		_ = w.Quantiles(qs, buf[:0])
	})
	if avg != 0 {
		t.Errorf("batched quantile query allocates %.1f objects per call, want 0", avg)
	}
}

// TestWindowedStatQuantileMatchesSort holds the selecting one-quantile query
// to the sorting batch query bit for bit, on window sizes around the
// median-of-three's small cases and the sizes the monitor and store use,
// unfilled and wrapped, over the contents that break careless quickselects.
func TestWindowedStatQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fills := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"random", func(i, n int) float64 { return rng.ExpFloat64() }},
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(-i) }},
		{"all-equal", func(i, n int) float64 { return 0 }},
		{"two-valued", func(i, n int) float64 { return float64(rng.Intn(2)) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i%n, n-1-i%n)) }},
	}
	qs := []float64{-1, 0, 0.01, 0.5, 0.95, 0.99, 0.999, 1, 2}
	for _, size := range []int{1, 2, 3, 13, 512, 4096} {
		for _, fill := range fills {
			// Half a window, then one and a half more: unfilled, then wrapped.
			w := NewWindowedStat(size)
			for _, upTo := range []int{size / 2, 2 * size} {
				for i := w.Count(); i < upTo; i++ {
					w.Observe(fill.at(i, size))
				}
				for _, q := range qs {
					got, want := w.Quantile(q), w.Quantiles([]float64{q}, nil)[0]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("size %d, %s, %d observed: Quantile(%v) = %v, sorting gives %v", size, fill.name, upTo, q, got, want)
					}
				}
			}
		}
	}
}

// TestWindowedStatQuantileAllocFree is the one-quantile counterpart of
// TestWindowedStatQuantilesAllocFree: selection works on the same reused
// scratch copy.
func TestWindowedStatQuantileAllocFree(t *testing.T) {
	w := NewWindowedStat(4096)
	for i := 0; i < 8192; i++ {
		w.Observe(float64(i % 997))
	}
	w.Quantile(0.99) // size the scratch
	avg := testing.AllocsPerRun(100, func() {
		w.Observe(1)
		_ = w.Quantile(0.99)
	})
	if avg != 0 {
		t.Errorf("one-quantile query allocates %.1f objects per call, want 0", avg)
	}
}

func TestWindowedStatSizeClamp(t *testing.T) {
	w := NewWindowedStat(0)
	w.Observe(4)
	w.Observe(6)
	if w.Count() != 1 || w.Mean() != 6 {
		t.Fatalf("size-0 window should clamp to 1, got count=%d mean=%v", w.Count(), w.Mean())
	}
}
