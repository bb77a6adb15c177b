package cluster

import (
	"math"
	"math/rand"
	"time"

	"autonosql/internal/sim"
)

// TenantProfile describes how multi-tenant background load on the shared
// infrastructure evolves over time. Bermbach & Tai observed that the
// inconsistency window of cloud storage drifts over long time scales; the
// paper attributes this to exactly this kind of shared-resource interference.
type TenantProfile struct {
	// BaseLoad is the steady background load fraction in [0, 0.9].
	BaseLoad float64
	// Amplitude is the peak additional load of slow oscillation.
	Amplitude float64
	// Period is the oscillation period (e.g. 6 h for a co-tenant batch job).
	Period time.Duration
	// BurstProbability is the per-interval probability of a short burst.
	BurstProbability float64
	// BurstLoad is the extra load during a burst.
	BurstLoad float64
	// BurstDuration is how long a burst lasts.
	BurstDuration time.Duration
	// NetworkShare is the fraction of the background load that also appears
	// as network congestion.
	NetworkShare float64
	// Interval is how often the profile is re-evaluated.
	Interval time.Duration
}

// QuietTenantProfile returns a profile with no background interference.
func QuietTenantProfile() TenantProfile {
	return TenantProfile{Interval: 5 * time.Second}
}

// NoisyTenantProfile returns the default noisy-neighbour profile used in the
// experiments: a 20% base load oscillating by ±15% over two hours with
// occasional 30-second bursts.
func NoisyTenantProfile() TenantProfile {
	return TenantProfile{
		BaseLoad:         0.20,
		Amplitude:        0.15,
		Period:           2 * time.Hour,
		BurstProbability: 0.02,
		BurstLoad:        0.35,
		BurstDuration:    30 * time.Second,
		NetworkShare:     0.5,
		Interval:         5 * time.Second,
	}
}

// TenantDriver applies a TenantProfile to a cluster on a periodic tick.
type TenantDriver struct {
	profile  TenantProfile
	cluster  *Cluster
	rng      *rand.Rand
	ticker   *sim.Ticker
	burstEnd time.Duration
	current  float64
}

// NewTenantDriver starts driving the profile on the cluster. A zero Interval
// defaults to five seconds.
func NewTenantDriver(engine *sim.Engine, c *Cluster, profile TenantProfile, rng *rand.Rand) (*TenantDriver, error) {
	if profile.Interval <= 0 {
		profile.Interval = 5 * time.Second
	}
	d := &TenantDriver{profile: profile, cluster: c, rng: rng}
	t, err := sim.NewTicker(engine, profile.Interval, d.tick)
	if err != nil {
		return nil, err
	}
	d.ticker = t
	return d, nil
}

// Current returns the background load applied at the last tick.
func (d *TenantDriver) Current() float64 { return d.current }

// Stop halts the driver.
func (d *TenantDriver) Stop() { d.ticker.Stop() }

func (d *TenantDriver) tick(now time.Duration) {
	p := d.profile
	load := p.BaseLoad
	if p.Period > 0 && p.Amplitude > 0 {
		phase := float64(now%p.Period) / float64(p.Period)
		load += float64(p.Amplitude * math.Sin(2*math.Pi*phase))
	}
	if now < d.burstEnd {
		load += p.BurstLoad
	} else if p.BurstProbability > 0 && d.rng.Float64() < p.BurstProbability {
		d.burstEnd = now + p.BurstDuration
		load += p.BurstLoad
	}
	load = clamp(load, 0, 0.9)
	d.current = load
	d.cluster.SetBackgroundLoad(load)
	d.cluster.Network().SetCongestion(load * p.NetworkShare)
}
