package sim

import (
	"math"
	"math/rand"
)

// The inverse-CDF table of a LogNormalTable: 2^logNormalBits cells of equal
// probability. The top logNormalBits bits of a draw pick a cell; the other 52
// place it inside, exactly representable as a float64 fraction.
const (
	logNormalBits  = 12
	logNormalCells = 1 << logNormalBits
	logNormalShift = 64 - logNormalBits
	logNormalMask  = 1<<logNormalShift - 1
)

// LogNormalTable samples a log-normal distribution of one shape sigma from a
// table of its quantile function, exp(sigma·Φ⁻¹(u)), at the edges of 4 096
// equal-probability cells. A draw takes one rng.Uint64: its top bits pick a
// cell and the rest interpolate linearly between the cell's edges, so the op
// path pays no transcendental call. The two tail cells, whose outer edges are
// 0 and +Inf, take the exact quantile instead, so the tails keep their
// shape. As a function of the raw Uint64 a draw is non-decreasing, finite and
// positive.
//
// LogNormal is the exact reference the table is judged against. Build a
// table once per shape, at package initialisation: it is 32 KiB, and the
// build costs 4 095 Erfinv and Exp calls.
type LogNormalTable struct {
	sigma float64
	// q[i] is the quantile at u = i/logNormalCells; q[0] and q[cells] are
	// never read.
	q [logNormalCells + 1]float64
}

// NewLogNormalTable builds the table of the log-normal with shape sigma and
// median 1.
func NewLogNormalTable(sigma float64) *LogNormalTable {
	t := &LogNormalTable{sigma: sigma}
	for i := 1; i < logNormalCells; i++ {
		t.q[i] = t.exact(float64(i) / logNormalCells)
	}
	return t
}

// Draw returns one log-normal sample with the given median, or 0 without
// consuming a draw when the median is not positive (as LogNormal does).
func (t *LogNormalTable) Draw(rng *rand.Rand, median float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * t.quantile(rng.Uint64())
}

// quantile maps a raw 64-bit draw to the median-1 distribution.
func (t *LogNormalTable) quantile(x uint64) float64 {
	i := x >> logNormalShift
	if i == 0 || i == logNormalCells-1 {
		// The midpoint of x's 2⁻⁵²-wide slot of [0, 1), exact in a float64:
		// never 0 or 1.
		return t.exact((float64(x>>12) + 0.5) * 0x1p-52)
	}
	f := float64(x&logNormalMask) * 0x1p-52
	a, b := t.q[i], t.q[i+1]
	return a + float64(f*(b-a))
}

// exact is the quantile at u in (0, 1): exp(sigma·√2·erfinv(2u − 1)).
func (t *LogNormalTable) exact(u float64) float64 {
	return math.Exp(t.sigma * math.Sqrt2 * math.Erfinv(float64(2*u)-1))
}
