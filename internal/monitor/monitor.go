package monitor

import (
	"errors"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

// Config configures a Monitor.
type Config struct {
	// UseActive enables the read-after-write prober.
	UseActive bool
	// UsePassive enables coordinator-side observation of replica acks.
	UsePassive bool
	// ProbeRate is the number of active probes started per second.
	ProbeRate float64
	// ProbePollInterval is the delay between successive reads of a probe key.
	ProbePollInterval time.Duration
	// ProbeTimeout abandons a probe that never observes its write.
	ProbeTimeout time.Duration
	// WindowSampleSize is the number of recent window estimates retained for
	// quantile queries.
	WindowSampleSize int
}

// latencySampleSize is the number of recent client latencies retained.
const latencySampleSize = 4096

// DefaultConfig enables both techniques with one probe per second.
func DefaultConfig() Config {
	return Config{
		UseActive:         true,
		UsePassive:        true,
		ProbeRate:         1,
		ProbePollInterval: 5 * time.Millisecond,
		ProbeTimeout:      10 * time.Second,
		WindowSampleSize:  512,
	}
}

// Snapshot is the periodic view of the system the controller works from. All
// durations are expressed in seconds.
type Snapshot struct {
	At       time.Duration
	Interval time.Duration

	// Inconsistency-window estimate.
	WindowMean    float64
	WindowP50     float64
	WindowP95     float64
	WindowP99     float64
	WindowSamples int

	// Client-observed performance over the interval.
	ReadLatencyP99    float64
	WriteLatencyP99   float64
	ObservedOpsPerSec float64
	ErrorRate         float64

	// Infrastructure utilisation over the interval.
	MeanUtilization float64
	MaxUtilization  float64

	// Monitoring overhead.
	ProbeOpsPerSec        float64
	ProbeOverheadFraction float64
	// ProbeFailures is the cumulative number of probes whose write was
	// rejected outright (crashed or partitioned store). A rising count tells
	// the controller the window estimate is censored, not healthy.
	ProbeFailures uint64

	// Current configuration, as the controller's knowledge of the plant.
	ClusterSize       int
	ReplicationFactor int
	ReadConsistency   store.ConsistencyLevel
	WriteConsistency  store.ConsistencyLevel

	// Tenants carries the per-tenant signals of a multi-tenant scenario,
	// one per declared tenant, expressed against each tenant's own SLA
	// class. It is filled by the scenario's sampling loop (the monitor has
	// no tenant knowledge of its own) and empty in single-tenant runs; the
	// tenant-aware controller acts on the worst penalty-weighted entry
	// instead of the aggregate estimate when it is non-empty.
	Tenants []tenant.Signal
}

// Monitor gathers estimates and exposes Snapshots. It implements
// workload.Target so client traffic can be routed through it, and
// store.Observer so passive estimation can piggyback on coordinator acks.
type Monitor struct {
	cfg     Config
	engine  *sim.Engine
	store   *store.Store
	cluster *cluster.Cluster

	utilSampler *cluster.UtilizationSampler
	prober      *Prober

	windowEst *metrics.WindowedStat
	readLat   *metrics.WindowedStat
	writeLat  *metrics.WindowedStat

	opsInterval    uint64
	errorsInterval uint64
	probeOpsTotal  uint64
	probeOpsPrev   uint64
	lastSnapshotAt time.Duration

	// windowQuantiles is the reused result buffer for the batched window
	// quantile query issued on every snapshot.
	windowQuantiles [3]float64

	// ops recycles the per-operation completion records, so client-side
	// accounting wraps the caller's callback without allocating.
	ops sim.Pool[taggedOp, *taggedOp]
}

// snapshotWindowQs are the window quantiles every snapshot reports, queried
// in one batch so the window sample buffer is sorted once per interval.
var snapshotWindowQs = []float64{0.50, 0.95, 0.99}

var (
	_ store.Observer = (*Monitor)(nil)
)

// New creates a monitor for the given store and cluster. If active probing
// is enabled the prober starts immediately. It takes a complete config;
// start from DefaultConfig.
func New(cfg Config, engine *sim.Engine, st *store.Store, cl *cluster.Cluster) (*Monitor, error) {
	if engine == nil || st == nil || cl == nil {
		return nil, errors.New("monitor: engine, store and cluster are required")
	}
	m := &Monitor{
		cfg:         cfg,
		engine:      engine,
		store:       st,
		cluster:     cl,
		utilSampler: cluster.NewUtilizationSampler(cl),
		windowEst:   metrics.NewWindowedStat(cfg.WindowSampleSize),
		readLat:     metrics.NewWindowedStat(latencySampleSize),
		writeLat:    metrics.NewWindowedStat(latencySampleSize),
	}
	if cfg.UsePassive {
		st.Subscribe(m)
	}
	if cfg.UseActive && cfg.ProbeRate > 0 {
		p, err := NewProber(ProberConfig{
			Rate:         cfg.ProbeRate,
			PollInterval: cfg.ProbePollInterval,
			Timeout:      cfg.ProbeTimeout,
		}, engine, st, m.onProbeEstimate)
		if err != nil {
			return nil, err
		}
		m.prober = p
	}
	return m, nil
}

// Stop halts background probing.
func (m *Monitor) Stop() {
	if m.prober != nil {
		m.prober.Stop()
	}
}

// Read, Write, ReadID and WriteID make the monitor a workload target: it
// forwards to the store and records the client-observed outcome. They are the
// untagged view, Tagged(0).
func (m *Monitor) Read(key store.Key, cb func(store.Result))      { m.Tagged(0).Read(key, cb) }
func (m *Monitor) Write(key store.Key, cb func(store.Result))     { m.Tagged(0).Write(key, cb) }
func (m *Monitor) ReadID(key store.KeyID, cb func(store.Result))  { m.Tagged(0).ReadID(key, cb) }
func (m *Monitor) WriteID(key store.KeyID, cb func(store.Result)) { m.Tagged(0).WriteID(key, cb) }

// TaggedTarget routes one tenant's operations through the monitor's
// aggregate client-side accounting while tagging them with the tenant's
// store ID, so the controller's aggregate view still covers all client
// traffic and the store can attribute ground truth per tenant. It is what a
// workload source or a tenant runtime is pointed at.
type TaggedTarget struct {
	m  *Monitor
	id store.TenantID
}

// Tagged returns the monitor's tagged view for one tenant.
func (m *Monitor) Tagged(id store.TenantID) TaggedTarget {
	return TaggedTarget{m: m, id: id}
}

// KeyID and KeyName resolve keys against the store's name table.
func (t TaggedTarget) KeyID(name store.Key) store.KeyID { return t.m.store.KeyID(name) }
func (t TaggedTarget) KeyName(id store.KeyID) store.Key { return t.m.store.KeyName(id) }

// Read and Write are ReadID and WriteID for a key given by name.
func (t TaggedTarget) Read(key store.Key, cb func(store.Result))  { t.ReadID(t.KeyID(key), cb) }
func (t TaggedTarget) Write(key store.Key, cb func(store.Result)) { t.WriteID(t.KeyID(key), cb) }

// ReadID forwards a read to the store with the monitor's accounting around
// the caller's callback.
func (t TaggedTarget) ReadID(key store.KeyID, cb func(store.Result)) {
	t.m.store.ReadAs(t.id, key, t.m.observe(cb))
}

// WriteID forwards a write, mirroring ReadID.
func (t TaggedTarget) WriteID(key store.KeyID, cb func(store.Result)) {
	t.m.store.WriteAs(t.id, key, t.m.observe(cb))
}

// taggedOp is the completion record of one forwarded operation: the
// caller's callback behind a handler bound once, when the record is first
// made, and reused every time the record is.
type taggedOp struct {
	m    *Monitor
	next *taggedOp // the pool's free-list link
	cb   func(store.Result)
	done func(store.Result)
}

// Link returns the record's free-list link, for its sim.Pool.
func (o *taggedOp) Link() **taggedOp { return &o.next }

// observe counts one client operation and returns the callback that records
// its outcome before passing it on to cb.
func (m *Monitor) observe(cb func(store.Result)) func(store.Result) {
	m.opsInterval++
	o := m.ops.Get()
	if o == nil {
		o = m.ops.New()
		o.m = m
		o.done = o.complete
	}
	o.cb = cb
	return o.done
}

func (o *taggedOp) complete(r store.Result) {
	m, cb := o.m, o.cb
	o.cb = nil
	m.ops.Put(o)
	switch {
	case r.Err != nil:
		m.errorsInterval++
	case r.Kind == store.OpWrite:
		m.writeLat.Observe(r.Latency.Seconds())
	default:
		m.readLat.Observe(r.Latency.Seconds())
	}
	if cb != nil {
		cb(r)
	}
}

// ObserveWrite implements store.Observer: the spread between the client
// acknowledgement and the last replica acknowledgement is a zero-cost
// estimate of the write's inconsistency window.
func (m *Monitor) ObserveWrite(o store.WriteObservation) {
	spread := o.LastAckAt - o.AckedAt
	if spread < 0 {
		spread = 0
	}
	m.windowEst.Observe(spread.Seconds())
}

// onProbeEstimate records an active-probe window estimate along with the
// number of operations the probe consumed.
func (m *Monitor) onProbeEstimate(windowSeconds float64, opsUsed int) {
	m.windowEst.Observe(windowSeconds)
	m.probeOpsTotal += uint64(opsUsed)
}

// WindowQuantile returns the current q-quantile of the window estimate in
// seconds.
func (m *Monitor) WindowQuantile(q float64) float64 { return m.windowEst.Quantile(q) }

// ProbeOps returns the cumulative number of operations issued by the active
// prober.
func (m *Monitor) ProbeOps() uint64 { return m.probeOpsTotal }

// Snapshot builds the controller-facing view of the last interval and
// resets the interval accumulators.
func (m *Monitor) Snapshot() Snapshot {
	now := m.engine.Now()
	interval := now - m.lastSnapshotAt
	meanU, maxU := m.utilSampler.Sample(now)

	ops := m.opsInterval
	errs := m.errorsInterval
	probeOps := m.probeOpsTotal - m.probeOpsPrev
	m.opsInterval = 0
	m.errorsInterval = 0
	m.probeOpsPrev = m.probeOpsTotal
	m.lastSnapshotAt = now

	wq := m.windowEst.Quantiles(snapshotWindowQs, m.windowQuantiles[:0])
	snap := Snapshot{
		At:                now,
		Interval:          interval,
		WindowMean:        m.windowEst.Mean(),
		WindowP50:         wq[0],
		WindowP95:         wq[1],
		WindowP99:         wq[2],
		WindowSamples:     m.windowEst.Count(),
		ReadLatencyP99:    m.readLat.Quantile(0.99),
		WriteLatencyP99:   m.writeLat.Quantile(0.99),
		MeanUtilization:   meanU,
		MaxUtilization:    maxU,
		ClusterSize:       m.cluster.Size(),
		ReplicationFactor: m.store.ReplicationFactor(),
		ReadConsistency:   m.store.ReadConsistency(),
		WriteConsistency:  m.store.WriteConsistency(),
	}
	if m.prober != nil {
		snap.ProbeFailures = m.prober.Failed()
	}
	if interval > 0 {
		secs := interval.Seconds()
		snap.ObservedOpsPerSec = float64(ops) / secs
		snap.ProbeOpsPerSec = float64(probeOps) / secs
	}
	if ops > 0 {
		snap.ErrorRate = float64(errs) / float64(ops)
	}
	if total := ops + probeOps; total > 0 {
		snap.ProbeOverheadFraction = float64(probeOps) / float64(total)
	}
	return snap
}
