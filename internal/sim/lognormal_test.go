package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestLogNormalTableMatchesCDF judges the table sampler against the analytic
// log-normal, not against LogNormal's draws: at 10⁶ draws per shape, the
// Kolmogorov–Smirnov distance to the CDF ½·erfc(−ln x/(σ√2)) must stay within
// 1.63/√n (the 1 % critical value), and the mean and the p99 within 0.5 % of
// exp(σ²/2) and exp(σ·Φ⁻¹(0.99)).
func TestLogNormalTableMatchesCDF(t *testing.T) {
	const n = 1_000_000
	for _, sigma := range []float64{0.3, 0.35} {
		tab := NewLogNormalTable(sigma)
		rng := rand.New(rand.NewSource(int64(sigma * 100)))
		draws := make([]float64, n)
		sum := 0.0
		for i := range draws {
			draws[i] = tab.Draw(rng, 1)
			sum += draws[i]
		}
		sort.Float64s(draws)

		ks := 0.0
		for i, x := range draws {
			cdf := 0.5 * math.Erfc(-math.Log(x)/(sigma*math.Sqrt2))
			ks = math.Max(ks, math.Max(math.Abs(float64(i+1)/n-cdf), math.Abs(cdf-float64(i)/n)))
		}
		if bound := 1.63 / math.Sqrt(n); ks > bound {
			t.Errorf("sigma %.2f: KS distance %.3g, want at most %.3g", sigma, ks, bound)
		}
		mean, wantMean := sum/n, math.Exp(sigma*sigma/2)
		if rel := math.Abs(mean/wantMean - 1); rel > 0.005 {
			t.Errorf("sigma %.2f: mean %.5f, want %.5f within 0.5 %%", sigma, mean, wantMean)
		}
		p99, wantP99 := draws[n*99/100], math.Exp(sigma*math.Sqrt2*math.Erfinv(0.98))
		if rel := math.Abs(p99/wantP99 - 1); rel > 0.005 {
			t.Errorf("sigma %.2f: p99 %.5f, want %.5f within 0.5 %%", sigma, p99, wantP99)
		}
		t.Logf("sigma %.2f: KS %.3g, mean %.5f (want %.5f), p99 %.5f (want %.5f)", sigma, ks, mean, wantMean, p99, wantP99)
	}
}

// TestLogNormalTableSeams walks every cell edge: the last draw of a cell never
// exceeds the first of the next, the tail cells' seams with the body included.
// Inside the cells it bounds the sampler's own distance to the distribution,
// free of sampling noise: at 64 points a cell, the draw for u lies within
// 5·10⁻⁵ of the u-quantile in CDF terms (it reads 2.1·10⁻⁵, next to the tail
// cells, where the quantile bends most).
func TestLogNormalTableSeams(t *testing.T) {
	for _, sigma := range []float64{0.3, 0.35} {
		tab := NewLogNormalTable(sigma)
		worst := 0.0
		for i := uint64(0); i < logNormalCells; i++ {
			x := i << logNormalShift
			if i > 0 {
				if lo, hi := tab.quantile(x-1), tab.quantile(x); lo > hi {
					t.Fatalf("sigma %v cell %d: quantile(%#x) = %v > quantile(%#x) = %v", sigma, i, x-1, lo, x, hi)
				}
			}
			for j := uint64(0); j < 64; j++ {
				y := x | j<<(logNormalShift-6) | 1<<20
				u := (float64(y>>12) + 0.5) * 0x1p-52
				cdf := 0.5 * math.Erfc(-math.Log(tab.quantile(y))/(sigma*math.Sqrt2))
				worst = math.Max(worst, math.Abs(cdf-u))
			}
		}
		if worst > 5e-5 {
			t.Errorf("sigma %v: the table's draws lie up to %.3g from their quantiles in CDF terms, want at most 5e-5", sigma, worst)
		}
	}
}

// TestLogNormalTableDraw pins the two cheap promises of a draw: a median
// that is not positive returns 0 without consuming the stream, and a draw
// allocates nothing.
func TestLogNormalTableDraw(t *testing.T) {
	tab := NewLogNormalTable(0.3)
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	if tab.Draw(a, 0) != 0 || tab.Draw(a, -1) != 0 {
		t.Fatal("a median <= 0 must draw 0")
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("a median <= 0 consumed the stream")
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(1000, func() { sink += tab.Draw(a, 1e-3) }); allocs != 0 {
		t.Fatalf("a draw allocates %v objects, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("draws were not positive")
	}
}

// FuzzLogNormalQuantile checks the draw as a function of the raw Uint64: finite,
// positive and non-decreasing, for any two inputs and for each input against
// its neighbours, which is where the seams between the tail cells and the
// body lie.
func FuzzLogNormalQuantile(f *testing.F) {
	seam := uint64(1) << logNormalShift
	for _, x := range []uint64{0, seam - 1, seam, (logNormalCells-1)*seam - 1, (logNormalCells - 1) * seam, math.MaxUint64} {
		f.Add(x, x+1)
	}
	tabs := []*LogNormalTable{NewLogNormalTable(0.3), NewLogNormalTable(0.35)}
	f.Fuzz(func(t *testing.T, x1, x2 uint64) {
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		for _, tab := range tabs {
			check := func(lo, hi uint64) {
				v, w := tab.quantile(lo), tab.quantile(hi)
				for _, q := range []float64{v, w} {
					if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
						t.Fatalf("sigma %v: quantile not finite and positive: %v", tab.sigma, q)
					}
				}
				if v > w {
					t.Fatalf("sigma %v: quantile(%#x) = %v > quantile(%#x) = %v", tab.sigma, lo, v, hi, w)
				}
			}
			check(x1, x2)
			if x1 > 0 {
				check(x1-1, x1)
			}
			if x2 < math.MaxUint64 {
				check(x2, x2+1)
			}
		}
	})
}
