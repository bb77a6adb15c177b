package store

import (
	"fmt"
	"math"

	"autonosql/internal/metrics"
)

// TenantID tags an operation with the tenant that issued it. The zero value
// is the untagged aggregate: scenarios that declare no tenants never pay for
// tenant bookkeeping beyond one nil check per recording point. Registered
// tenants are numbered 1..n.
type TenantID int

// tenantStats is one tenant's ground-truth slice of the store statistics.
// Every metric also feeds the aggregate set, so the untagged totals remain
// the sum over tenants plus any untagged traffic (probes).
type tenantStats struct {
	reads         metrics.Counter
	writes        metrics.Counter
	readFailures  metrics.Counter
	writeFailures metrics.Counter
	staleReads    metrics.Counter
	shedOps       metrics.Counter

	readLatency  *metrics.Histogram
	writeLatency *metrics.Histogram
	windowHist   *metrics.Histogram
	recentWindow *metrics.WindowedStat
	// clients is the tenant's client accounting (ObserveClients).
	clients ClientObserver
}

// TenantGroundTruth is a snapshot of one tenant's cumulative ground-truth
// statistics, the per-tenant analogue of Stats.
type TenantGroundTruth struct {
	Reads         uint64
	Writes        uint64
	ReadFailures  uint64
	WriteFailures uint64
	StaleReads    uint64
	// ShedOps counts operations rejected by admission control before they
	// reached the store. Shed operations are also counted in ReadFailures /
	// WriteFailures — a shed is a rejection in the tenant's ground truth —
	// but never in the aggregate Stats, whose counters cover operations the
	// store actually saw.
	ShedOps uint64

	ReadLatency  metrics.Snapshot
	WriteLatency metrics.Snapshot
	// Window summarises the true inconsistency window of this tenant's
	// acknowledged writes, in seconds.
	Window metrics.Snapshot
}

// RegisterTenants allocates per-tenant ground-truth metric sets for tenant
// IDs 1..n. It must be called before any tagged operation is issued;
// registering zero tenants keeps the store in untagged single-tenant mode. A
// write's window keeps its tenant in 16 bits, so n is at most math.MaxInt16.
func (s *Store) RegisterTenants(n int) {
	if n <= 0 {
		return
	}
	if n > math.MaxInt16 {
		panic(fmt.Errorf("store: %d tenants, at most %d", n, math.MaxInt16))
	}
	s.tenants = make([]*tenantStats, n)
	for i := range s.tenants {
		s.tenants[i] = &tenantStats{
			readLatency:  metrics.NewHistogram(0),
			writeLatency: metrics.NewHistogram(0),
			windowHist:   metrics.NewHistogram(0),
			recentWindow: metrics.NewWindowedStat(1024),
		}
	}
}

// tenant resolves a tag to its metric set; it returns nil for the untagged
// aggregate (id 0) and for unregistered IDs, so every recording point can
// guard with a single nil check.
func (s *Store) tenant(id TenantID) *tenantStats {
	if id <= 0 || int(id) > len(s.tenants) {
		return nil
	}
	return s.tenants[id-1]
}

// TenantStats returns a snapshot of one tenant's cumulative ground truth.
// It returns the zero value for the aggregate ID and unregistered IDs.
func (s *Store) TenantStats(id TenantID) TenantGroundTruth {
	t := s.tenant(id)
	if t == nil {
		return TenantGroundTruth{}
	}
	return TenantGroundTruth{
		Reads:         t.reads.Value(),
		Writes:        t.writes.Value(),
		ReadFailures:  t.readFailures.Value(),
		WriteFailures: t.writeFailures.Value(),
		StaleReads:    t.staleReads.Value(),
		ShedOps:       t.shedOps.Value(),
		ReadLatency:   t.readLatency.Snapshot(),
		WriteLatency:  t.writeLatency.Snapshot(),
		Window:        t.windowHist.Snapshot(),
	}
}

// ObserveClients makes o the accounting of client operations (IssueAs):
// of every one for tag zero, of the tagged tenant's for a registered tag. It
// replaces an earlier one.
func (s *Store) ObserveClients(id TenantID, o ClientObserver) error {
	if id == 0 {
		s.clients = o
	} else if t := s.tenant(id); t != nil {
		t.clients = o
	} else {
		return fmt.Errorf("store: tenant %d is not registered", id)
	}
	return nil
}

// TenantShed records an operation of the tagged tenant rejected by admission
// control before it reached the store: the shed is counted as a rejection in
// the tenant's ground truth. It is a no-op for the untagged aggregate.
func (s *Store) TenantShed(id TenantID, write bool) {
	t := s.tenant(id)
	if t == nil {
		return
	}
	t.shedOps.Inc()
	if write {
		t.writeFailures.Inc()
	} else {
		t.readFailures.Inc()
	}
}

// TenantRecentWindowQuantile returns the q-quantile (in seconds) of one
// tenant's true inconsistency window over its most recent writes, the
// per-tenant analogue of RecentWindowQuantile.
func (s *Store) TenantRecentWindowQuantile(id TenantID, q float64) float64 {
	t := s.tenant(id)
	if t == nil {
		return 0
	}
	return t.recentWindow.Quantile(q)
}

// countFailure records a failed operation in the aggregate set and, for a
// tagged tenant, in the tenant's.
func (s *Store) countFailure(id TenantID, write bool) {
	t := s.tenant(id)
	if write {
		s.writeFailures.Inc()
		if t != nil {
			t.writeFailures.Inc()
		}
		return
	}
	s.readFailures.Inc()
	if t != nil {
		t.readFailures.Inc()
	}
}
