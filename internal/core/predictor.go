package core

import (
	"math"
	"time"
)

// LoadPredictor forecasts the offered load a short horizon ahead using a
// least-squares linear fit over the most recent observations. This is the
// "smart" in smart auto-scaling: provisioning a node takes minutes, so the
// controller must order capacity before the load arrives, not after the
// window has already blown past the SLA.
type LoadPredictor struct {
	size    int
	times   []float64 // seconds
	rates   []float64 // ops/s
	next    int
	filled  bool
	samples int
}

// NewLoadPredictor creates a predictor fitting over the last window samples.
func NewLoadPredictor(window int) *LoadPredictor {
	if window < 2 {
		window = 2
	}
	return &LoadPredictor{
		size:  window,
		times: make([]float64, window),
		rates: make([]float64, window),
	}
}

// Observe records one (time, offered rate) sample.
func (p *LoadPredictor) Observe(at time.Duration, opsPerSec float64) {
	if opsPerSec < 0 {
		opsPerSec = 0
	}
	p.times[p.next] = at.Seconds()
	p.rates[p.next] = opsPerSec
	p.next++
	p.samples++
	if p.next == p.size {
		p.next = 0
		p.filled = true
	}
}

// Samples returns the number of samples observed so far.
func (p *LoadPredictor) Samples() int { return p.samples }

func (p *LoadPredictor) window() (ts, rs []float64) {
	if p.filled {
		return p.times, p.rates
	}
	return p.times[:p.next], p.rates[:p.next]
}

// fit returns the least-squares intercept and slope of rate over time, and
// whether a fit was possible.
func (p *LoadPredictor) fit() (intercept, slope float64, ok bool) {
	ts, rs := p.window()
	n := float64(len(ts))
	if n < 2 {
		return 0, 0, false
	}
	var sumT, sumR, sumTR, sumTT float64
	for i := range ts {
		sumT += ts[i]
		sumR += rs[i]
		sumTR += float64(ts[i] * rs[i])
		sumTT += float64(ts[i] * ts[i])
	}
	denom := float64(n*sumTT) - float64(sumT*sumT)
	if denom == 0 {
		return sumR / n, 0, true
	}
	slope = (float64(n*sumTR) - float64(sumT*sumR)) / denom
	intercept = (sumR - float64(slope*sumT)) / n
	return intercept, slope, true
}

// TrendPerSecond returns the fitted change in offered load per second of
// virtual time (zero until at least two samples are available).
func (p *LoadPredictor) TrendPerSecond() float64 {
	_, slope, ok := p.fit()
	if !ok || math.IsNaN(slope) || math.IsInf(slope, 0) {
		return 0
	}
	return slope
}

// Forecast predicts the offered load at the given virtual time. The forecast
// is clamped to be non-negative and to at most double the largest observed
// rate, so a steep short-lived ramp cannot demand an absurd cluster size.
func (p *LoadPredictor) Forecast(at time.Duration) float64 {
	ts, rs := p.window()
	if len(rs) == 0 {
		return 0
	}
	last := rs[0]
	maxSeen := 0.0
	for i := range rs {
		if rs[i] > maxSeen {
			maxSeen = rs[i]
		}
	}
	if len(ts) > 0 {
		// Most recent sample is the one written just before next (circular).
		idx := p.next - 1
		if idx < 0 {
			idx = len(rs) - 1
		}
		last = rs[idx]
	}
	intercept, slope, ok := p.fit()
	if !ok {
		return last
	}
	pred := intercept + float64(slope*at.Seconds())
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		return last
	}
	if pred < 0 {
		pred = 0
	}
	cap := 2 * maxSeen
	if cap > 0 && pred > cap {
		pred = cap
	}
	return pred
}

// RequiredNodes converts a forecast offered load into a node count, keeping
// per-node utilisation at or below targetUtil. It never returns less than
// one.
func RequiredNodes(opsPerSec, nodeCapacity, targetUtil float64) int {
	if nodeCapacity <= 0 || targetUtil <= 0 {
		return 1
	}
	n := int(math.Ceil(opsPerSec / (nodeCapacity * targetUtil)))
	if n < 1 {
		n = 1
	}
	return n
}
