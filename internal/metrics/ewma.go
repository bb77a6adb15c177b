package metrics

// EWMA is an exponentially weighted moving average. Monitors use it to
// smooth inconsistency-window and latency estimates before handing them to
// the controller, so that single outliers do not trigger reconfiguration.
type EWMA struct {
	alpha       float64
	value       float64
	initialized bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent samples more heavily. Out-of-range alphas are clamped.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Update folds a new sample into the average and returns the new value.
func (e *EWMA) Update(sample float64) float64 {
	if !e.initialized {
		e.value = sample
		e.initialized = true
		return e.value
	}
	e.value = float64(e.alpha*sample) + float64((1-e.alpha)*e.value)
	return e.value
}

// Value returns the current average (zero before the first sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been observed.
func (e *EWMA) Initialized() bool { return e.initialized }

// Reset clears the average.
func (e *EWMA) Reset() {
	e.value = 0
	e.initialized = false
}

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Gauge holds a single instantaneous value.
type Gauge struct {
	v float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return g.v }
