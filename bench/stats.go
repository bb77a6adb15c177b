package main

import (
	"math"
	"sort"
)

// summary is the five numbers printed beside every timed metric.
type summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so a spread
// computed here agrees with one computed from the printed values. Fewer than
// two values have no spread: both quartiles are the single value (or 0).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// summarize folds v into its printed summary.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sorted(v)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: median(s), Q3: q3, Max: s[len(s)-1]}
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise figure every bound is judged against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of v by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile picks the highest percentile of the usual ladder that still
// has at least ten samples beyond it — the furthest into the tail a sample of
// this size can speak for — and returns it with its value. With fewer than
// twenty samples even the median has no ten beyond it; ok is then false.
func tailPercentile(v []float64) (p, value float64, ok bool) {
	for _, cand := range []float64{99.9, 99, 95, 90, 50} {
		beyond := float64(len(v)) * (1 - cand/100)
		if beyond >= 10-1e-9 {
			return cand, percentile(v, cand), true
		}
	}
	return 0, 0, false
}
