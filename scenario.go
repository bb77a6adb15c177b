package autonosql

import (
	"errors"
	"fmt"
	"io"
	"time"

	"autonosql/internal/baseline"
	"autonosql/internal/cluster"
	"autonosql/internal/core"
	"autonosql/internal/fault"
	"autonosql/internal/metrics"
	"autonosql/internal/monitor"
	"autonosql/internal/obs"
	"autonosql/internal/sim"
	"autonosql/internal/sla"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
	"autonosql/internal/workload"
)

// Scenario is one fully assembled simulated system: cluster, store, workload,
// monitor, SLA tracking and (optionally) a controller. Build it with
// NewScenario, optionally register interventions with At, then call Run.
type Scenario struct {
	spec ScenarioSpec

	engine   *sim.Engine
	rnd      *sim.RandSource
	cluster  *cluster.Cluster
	store    *store.Store
	monitor  *monitor.Monitor
	tenant   *cluster.TenantDriver
	injector *fault.Injector

	// drivers carry all client traffic, in start order: the anonymous
	// workload's single driver, or one per declared tenant aligned with
	// tenantRuntimes. Start order fixes the home engine's sequence numbers,
	// so it is part of every golden fingerprint.
	drivers []driver

	// actuator is the execution surface the controller and Handle both act
	// through, so an intervention adds and removes nodes under the same
	// policy as the controller.
	actuator core.Actuator

	// Multi-tenant mode: one runtime per declared tenant. tenantAct is the
	// scoped-action surface (admission + placement) the controller and
	// Handle execute tenant- and class-scoped actions through.
	tenantRuntimes []*tenant.Runtime
	tenantAct      *tenantActuator

	// recorder, when armed via RecordTrace, captures the arrival stream of
	// the drivers.
	recorder *workload.TraceRecorder

	costs   sla.CostModel
	tracker *sla.Tracker

	smart    *core.Controller
	reactive *baseline.ReactiveAutoscaler

	series      map[string]*metrics.TimeSeries
	sampler     *sim.Ticker
	lastControl time.Duration
	maxNodes    int
	minNodes    int

	hooks []hook
	ran   bool

	// sampleHook, when set via OnSample, observes every closed sampling
	// window; abortErr records the error that halted an aborted run.
	sampleHook func(SampleWindow) error
	abortErr   error

	// tracer is the op-trace sampler, non-nil only when Observe.TraceOps is
	// set.
	tracer *obs.Tracer
}

type hook struct {
	at time.Duration
	fn func(*Handle)
}

// NewScenario validates the spec and assembles the simulated system.
func NewScenario(spec ScenarioSpec) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.SampleInterval <= 0 {
		spec.SampleInterval = 10 * time.Second
	}
	if spec.Controller.ControlInterval <= 0 {
		spec.Controller.ControlInterval = 10 * time.Second
	}

	engine := sim.NewEngine()
	rnd := sim.NewRandSource(spec.Seed)
	cl := cluster.New(spec.clusterConfig(), engine, rnd)

	storeCfg, err := spec.storeConfig()
	if err != nil {
		return nil, err
	}
	st, err := store.New(storeCfg, engine, cl, rnd)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling store: %w", err)
	}
	mon, err := monitor.New(spec.monitorConfig(), engine, st, cl)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling monitor: %w", err)
	}

	s := &Scenario{
		spec:     spec,
		engine:   engine,
		rnd:      rnd,
		cluster:  cl,
		store:    st,
		monitor:  mon,
		costs:    spec.costModel(),
		tracker:  sla.NewTracker(spec.slaModel()),
		series:   make(map[string]*metrics.TimeSeries),
		maxNodes: cl.Size(),
		minNodes: cl.Size(),
	}

	// Fault injection. The injector is assembled only when the plan is
	// non-empty, so fault-free scenarios carry no injection machinery at all.
	if !spec.Faults.Empty() {
		inj, err := fault.NewInjector(engine, cl, rnd.Stream("fault"), spec.Duration)
		if err != nil {
			return nil, fmt.Errorf("autonosql: assembling fault injector: %w", err)
		}
		s.injector = inj
	}

	// Background platform interference (noisy neighbours).
	if spec.Cluster.NoisyNeighbour {
		td, err := cluster.NewTenantDriver(engine, cl, cluster.NoisyTenantProfile(), rnd.Stream("tenant"))
		if err != nil {
			return nil, fmt.Errorf("autonosql: assembling tenant driver: %w", err)
		}
		s.tenant = td
	}

	// Client workload routed through the monitor so client-observed latency
	// and error rates are measured the way an application would measure them.
	// With declared tenants, each tenant gets its own generator, runtime and
	// disjoint key-space slice instead of the single anonymous workload.
	if len(spec.Tenants) == 0 {
		if err := s.addDriver("", mon, spec.Workload, 0); err != nil {
			return nil, fmt.Errorf("autonosql: assembling workload: %w", err)
		}
	} else if err := s.assembleTenants(); err != nil {
		return nil, err
	}

	// Controller. With declared tenants the actuator grows the scoped-action
	// surface (admission control and class placement) on top of the plain
	// cluster/store knobs; without them the controller sees exactly the
	// pre-tenant actuator.
	sysActuator, err := core.NewSystemActuator(st, cl)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling actuator: %w", err)
	}
	s.actuator = sysActuator
	if len(spec.Tenants) > 0 {
		s.tenantAct = &tenantActuator{SystemActuator: sysActuator, scenario: s}
		s.actuator = s.tenantAct
	}
	switch spec.Controller.Mode {
	case ControllerSmart:
		ctl, err := core.New(spec.controllerConfig(), s.actuator)
		if err != nil {
			return nil, fmt.Errorf("autonosql: assembling controller: %w", err)
		}
		s.smart = ctl
	case ControllerReactive:
		ra, err := baseline.NewReactiveAutoscaler(spec.reactiveConfig(), s.actuator)
		if err != nil {
			return nil, fmt.Errorf("autonosql: assembling reactive autoscaler: %w", err)
		}
		s.reactive = ra
	case ControllerNone, "":
		// Static configuration: nothing to assemble.
	}

	// Observability. The tracer fronts admission in the tenant runtimes (so a
	// shed or delayed op still gets its span) and falls through to the store
	// for anonymous traffic; the audit trail rides on the smart controller.
	if ob := spec.Observe; ob != nil {
		if ob.TraceOps {
			s.tracer = obs.NewTracer(ob.SampleEvery, ob.MaxTraces)
			st.SetTracer(s.tracer)
			for _, rt := range s.tenantRuntimes {
				if err := rt.SetTracer(s.tracer, engine.Now); err != nil {
					return nil, fmt.Errorf("autonosql: arming tracer: %w", err)
				}
			}
		}
		if ob.Audit && s.smart != nil {
			s.smart.EnableAudit()
		}
	}

	for _, name := range []string{
		SeriesWindowP95, SeriesWindowEstimateP95, SeriesOfferedLoad, SeriesClusterSize,
		SeriesUtilization, SeriesWriteConsistency, SeriesReplicationFactor, SeriesStaleReads,
		SeriesReadLatencyP99, SeriesWriteLatencyP99,
	} {
		s.series[name] = metrics.NewTimeSeries(name)
	}
	// Each tenant gets its own ground-truth metrics stream alongside the
	// aggregate series.
	for _, ts := range spec.Tenants {
		for _, base := range []string{SeriesWindowP95, SeriesOfferedLoad, SeriesReadLatencyP99} {
			name := tenantSeriesName(ts.Name, base)
			s.series[name] = metrics.NewTimeSeries(name)
		}
	}

	return s, nil
}

// Names of the time series a Report carries.
const (
	// SeriesWindowP95 is the ground-truth 95th-percentile inconsistency
	// window over recent writes, in milliseconds.
	SeriesWindowP95 = "window_p95_ms"
	// SeriesWindowEstimateP95 is the monitor's estimate of the same quantity.
	SeriesWindowEstimateP95 = "window_estimate_p95_ms"
	// SeriesOfferedLoad is the observed client operation rate in ops/s.
	SeriesOfferedLoad = "offered_ops_per_sec"
	// SeriesClusterSize is the number of serving nodes.
	SeriesClusterSize = "cluster_size"
	// SeriesUtilization is the mean node utilisation in [0, 1].
	SeriesUtilization = "mean_utilization"
	// SeriesWriteConsistency is the numeric write consistency level
	// (1=ONE, 2=TWO, 3=QUORUM, 4=ALL).
	SeriesWriteConsistency = "write_consistency_level"
	// SeriesReplicationFactor is the replication factor.
	SeriesReplicationFactor = "replication_factor"
	// SeriesStaleReads is the cumulative number of stale reads served.
	SeriesStaleReads = "stale_reads_total"
	// SeriesReadLatencyP99 is the client-observed read latency p99 in
	// milliseconds over recent operations.
	SeriesReadLatencyP99 = "read_latency_p99_ms"
	// SeriesWriteLatencyP99 is the client-observed write latency p99 in
	// milliseconds over recent operations.
	SeriesWriteLatencyP99 = "write_latency_p99_ms"
)

// keyChooserFor builds a key chooser over its own random stream. Callers
// that need a confined window of the key namespace (tenants) apply
// workload.Slice on the result.
func (s *Scenario) keyChooserFor(dist KeyDistribution, n int, stream string) (workload.KeyChooser, error) {
	rng := s.rnd.Stream(stream)
	switch dist {
	case KeysUniform:
		return workload.NewUniformKeys(n, rng), nil
	case KeysLatest:
		return workload.NewLatestKeys(n, rng), nil
	case KeysZipfian, "":
		return workload.NewZipfianKeys(n, 1.3, rng), nil
	default:
		return nil, fmt.Errorf("autonosql: unknown key distribution %q", dist)
	}
}

// defaultKeyspace is the key count of a workload that declares none.
const defaultKeyspace = 10000

// keyspace returns a workload's key count, and so the size of a tenant's
// slice.
func keyspace(w WorkloadSpec) int {
	if w.Keyspace > 0 {
		return w.Keyspace
	}
	return defaultKeyspace
}

// assembleTenants builds one runtime and one generator per declared tenant.
// Tenant i (1-indexed as its store tag) drives the key range
// [offset, offset+keyspace) where offset is the sum of the preceding
// tenants' keyspaces, so tenants never collide on keys; its operations are
// tagged through the monitor so the aggregate client view still covers all
// traffic while the store attributes ground truth per tenant.
func (s *Scenario) assembleTenants() error {
	specs := s.spec.Tenants
	s.store.RegisterTenants(len(specs))
	if s.spec.Controller.AllowPlacement {
		// Record key ownership from the first write, so a pin-class action
		// can repair every key onto its tenant's biased replica set;
		// scenarios that never allow placement skip the per-write recording.
		s.store.EnablePlacementTracking()
	}
	s.tenantRuntimes = make([]*tenant.Runtime, 0, len(specs))
	base := 0
	for i, ts := range specs {
		id := store.TenantID(i + 1)
		class, err := ts.Class.toInternal()
		if err != nil {
			return fmt.Errorf("autonosql: tenant %q: %w", ts.Name, err)
		}
		rt, err := tenant.NewRuntime(id, ts.Name, class, s.monitor.Tagged(id))
		if err != nil {
			return fmt.Errorf("autonosql: tenant %q: %w", ts.Name, err)
		}
		// Admission plumbing is always installed (the limiter starts
		// disabled and admits everything): throttle actions — from the
		// controller or a Handle intervention — can then engage it mid-run,
		// and every shed is counted as a rejection in the tenant's store
		// ground truth.
		if err := rt.EnableAdmission(s.engine.Now, func(write bool) {
			s.store.TenantShed(id, write)
		}); err != nil {
			return fmt.Errorf("autonosql: tenant %q: %w", ts.Name, err)
		}
		if s.spec.Controller.Admission.Mode == AdmissionDelay {
			// Delay mode queues a throttled tenant's excess arrivals on the
			// event loop instead of shedding them.
			if err := rt.EnableDelayMode(func(d time.Duration, fn func()) {
				s.engine.After(d, func(time.Duration) { fn() })
			}); err != nil {
				return fmt.Errorf("autonosql: tenant %q: %w", ts.Name, err)
			}
		}
		s.tenantRuntimes = append(s.tenantRuntimes, rt)
		if err := s.addDriver(ts.Name, rt, ts.Workload, base); err != nil {
			return fmt.Errorf("autonosql: tenant %q: %w", ts.Name, err)
		}
		base += keyspace(ts.Workload)
	}
	return nil
}

// driver is one source of client traffic: a workload.Generator, or in replay
// mode (spec.Replay != nil) the workload.TraceSource issuing the recorded
// arrivals in its place.
type driver struct {
	// tenant is the name the driver's arrivals are recorded and replayed
	// under; "" is the anonymous workload.
	tenant string
	source
}

// source is what a Scenario needs of a Generator or TraceSource.
type source interface {
	Start()
	Stop()
	Intercept(func(workload.IDTarget) workload.IDTarget)
}

// driverTarget is what a driver is pointed at: the monitor, or a tenant's
// runtime in front of it.
type driverTarget interface {
	workload.Target
	workload.IDTarget
}

// addDriver builds the driver of one traffic source — the anonymous workload
// (tenant "") or a declared tenant — and appends it to s.drivers. Replay
// drives the target from the tenant's recorded arrivals and leaves key
// choosers and arrival streams unbuilt (the trace already carries the keys);
// otherwise a generator draws from the tenant's named random streams, a
// declared tenant's keys confined to the keyspace slice starting at keyBase.
func (s *Scenario) addDriver(tenant string, target driverTarget, w WorkloadSpec, keyBase int) error {
	d := driver{tenant: tenant}
	if s.spec.Replay != nil {
		src, err := workload.NewTraceSource(s.engine, target, s.store.KeyID, s.spec.Replay.trace, tenant)
		if err != nil {
			return err
		}
		d.source = src
	} else {
		keyStream, arrivalStream := "keys", ""
		if tenant != "" {
			keyStream, arrivalStream = "tenant-"+tenant+"-keys", "tenant-"+tenant+"-arrivals"
		}
		keys, err := s.keyChooserFor(w.Keys, keyspace(w), keyStream)
		if err != nil {
			return err
		}
		if tenant != "" {
			// Confine the chooser to the tenant's window even at base 0: the
			// "latest" distribution appends without bound and would otherwise
			// grow into the next tenant's slice.
			workload.Slice(keys, keyBase, keyspace(w))
		}
		gen, err := workload.NewGenerator(workload.Config{
			Profile:       loadProfileFor(w, s.spec.Duration),
			Mix:           workload.Mix{ReadFraction: w.ReadFraction},
			Keys:          keys,
			Until:         s.spec.Duration,
			ArrivalStream: arrivalStream,
		}, s.engine, target, s.rnd)
		if err != nil {
			return err
		}
		d.source = gen
	}
	s.drivers = append(s.drivers, d)
	return nil
}

// Spec returns the spec the scenario was built from.
func (s *Scenario) Spec() ScenarioSpec { return s.spec }

// RecordTrace arms arrival recording on a scenario that has not run yet:
// every workload driver's target is wrapped with a pass-through recorder, so
// the run captures its complete arrival stream without perturbing it (the
// recorder draws no randomness and schedules no events). Retrieve the trace
// with RecordedTrace after Run. Replayed scenarios can be recorded too; the
// re-recorded trace equals the one being replayed.
func (s *Scenario) RecordTrace() error {
	if s.ran {
		return errors.New("autonosql: cannot record a scenario that has already run")
	}
	if s.recorder != nil {
		return errors.New("autonosql: trace recording is already armed")
	}
	names := make([]string, len(s.spec.Tenants))
	for i, ts := range s.spec.Tenants {
		names[i] = ts.Name
	}
	rec, err := workload.NewTraceRecorder(s.engine.Now, s.store.KeyName, names)
	if err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	for _, d := range s.drivers {
		d.Intercept(func(inner workload.IDTarget) workload.IDTarget { return rec.Wrap(d.tenant, inner) })
	}
	s.recorder = rec
	return nil
}

// RecordedTrace returns the arrival stream captured by a run that was armed
// with RecordTrace before Run.
func (s *Scenario) RecordedTrace() (*WorkloadTrace, error) {
	if s.recorder == nil {
		return nil, errors.New("autonosql: RecordTrace was not called before the run")
	}
	if !s.ran {
		return nil, errors.New("autonosql: the scenario has not run yet")
	}
	return &WorkloadTrace{trace: s.recorder.Trace()}, nil
}

// WriteSpans writes the retained op traces as JSON lines, one span tree per
// sampled operation, in sampling order. Virtual timestamps and counter ids
// only: the bytes are identical for every rerun of the same spec. It errors
// unless the scenario was built with Observe.TraceOps.
func (s *Scenario) WriteSpans(w io.Writer) error {
	if s.tracer == nil {
		return errors.New("autonosql: op tracing is not enabled (set Observe.TraceOps)")
	}
	if err := obs.WriteJSONL(w, s.tracer.Traces()); err != nil {
		return fmt.Errorf("autonosql: writing spans: %w", err)
	}
	return nil
}

// WriteChromeTrace writes the retained op traces in Chrome trace_event JSON
// (load it in chrome://tracing or Perfetto). Deterministic like WriteSpans.
func (s *Scenario) WriteChromeTrace(w io.Writer) error {
	if s.tracer == nil {
		return errors.New("autonosql: op tracing is not enabled (set Observe.TraceOps)")
	}
	if err := obs.WriteChromeTrace(w, s.tracer.Traces()); err != nil {
		return fmt.Errorf("autonosql: writing chrome trace: %w", err)
	}
	return nil
}

// OnSpan registers fn to observe every op trace as it finishes (op completed,
// failed or shed). It powers streaming surfaces: fn runs on the simulation
// goroutine and must not retain the trace beyond the call without copying.
// Register before Run; it is a no-op unless Observe.TraceOps is set.
func (s *Scenario) OnSpan(fn func(*obs.OpTrace)) {
	if s.tracer != nil {
		s.tracer.SetSink(fn)
	}
}

// SampleWindow is one closed sampling window of a running scenario: the
// virtual time the sampler fired at and the value every time series recorded
// for that window, keyed by series name (the Series* constants, plus
// tenant/<name>/<series> streams for multi-tenant runs).
type SampleWindow struct {
	// At is the virtual time of the sample.
	At time.Duration
	// Values maps each series name to the value sampled for this window.
	Values map[string]float64
}

// OnSample registers fn to observe every sampling window as it closes, after
// the window's SLA accounting and control step have run. It powers streaming
// surfaces (the nosqlsimd daemon) without touching the simulation: fn runs on
// the simulation goroutine and must treat the scenario as read-only; blocking
// inside it freezes virtual time (which is how the daemon implements pause).
// Returning a non-nil error halts the run — Run then returns that error — so
// an observer can also cancel. Register before Run; a nil fn clears the hook.
func (s *Scenario) OnSample(fn func(SampleWindow) error) {
	s.sampleHook = fn
}

// abort records the first abort reason and halts the engine so Run unwinds
// at the next event.
func (s *Scenario) abort(err error) {
	if s.abortErr == nil {
		s.abortErr = err
	}
	s.engine.Halt()
}

// At registers an intervention to run at the given virtual time during Run.
// The callback receives a Handle bound to the live system. Interventions
// registered after Run has been called are ignored.
func (s *Scenario) At(at time.Duration, fn func(*Handle)) {
	if fn == nil || at < 0 {
		return
	}
	s.hooks = append(s.hooks, hook{at: at, fn: fn})
}

// Run executes the scenario for its configured duration and returns the
// report. A scenario can only be run once.
func (s *Scenario) Run() (*Report, error) {
	if s.ran {
		return nil, errors.New("autonosql: scenario has already been run")
	}
	s.ran = true

	// Periodic sampling + SLA accounting + control.
	sampler, err := sim.NewTicker(s.engine, s.spec.SampleInterval, s.onSample)
	if err != nil {
		return nil, fmt.Errorf("autonosql: starting sampler: %w", err)
	}
	s.sampler = sampler

	// Interventions.
	handle := &Handle{scenario: s}
	for _, h := range s.hooks {
		h := h
		s.engine.AfterAt(h.at, func(time.Duration) { h.fn(handle) })
	}

	// Planned fault events.
	if s.injector != nil {
		if err := s.injector.Schedule(s.spec.Faults.toInternal()); err != nil {
			return nil, fmt.Errorf("autonosql: scheduling faults: %w", err)
		}
	}

	for _, d := range s.drivers {
		d.Start()
	}
	runErr := s.engine.Run(s.spec.Duration)
	if s.abortErr != nil {
		return nil, fmt.Errorf("autonosql: run aborted: %w", s.abortErr)
	}
	if runErr != nil {
		return nil, fmt.Errorf("autonosql: running simulation: %w", runErr)
	}
	for _, d := range s.drivers {
		d.Stop()
	}
	s.sampler.Stop()
	if s.tenant != nil {
		s.tenant.Stop()
	}
	return s.buildReport(), nil
}

// onSample is the per-interval bookkeeping: one monitoring snapshot feeds SLA
// accounting, the time series and (when due) the controller.
func (s *Scenario) onSample(now time.Duration) {
	snap := s.monitor.Snapshot()

	// Ground truth for evaluation: the true window over recent writes and the
	// store's cumulative stale-read count. The store's cumulative histograms
	// are read once, by the report.
	trueWindowP95 := s.store.RecentWindowQuantile(0.95)

	s.tracker.Observe(sla.Observation{
		At:              now,
		Interval:        snap.Interval,
		WindowP95:       trueWindowP95,
		ReadLatencyP99:  snap.ReadLatencyP99,
		WriteLatencyP99: snap.WriteLatencyP99,
		ErrorRate:       snap.ErrorRate,
	})

	s.series[SeriesWindowP95].Append(now, trueWindowP95*1000)
	s.series[SeriesWindowEstimateP95].Append(now, snap.WindowP95*1000)
	s.series[SeriesOfferedLoad].Append(now, snap.ObservedOpsPerSec)
	s.series[SeriesClusterSize].Append(now, float64(snap.ClusterSize))
	s.series[SeriesUtilization].Append(now, snap.MeanUtilization)
	s.series[SeriesWriteConsistency].Append(now, float64(snap.WriteConsistency))
	s.series[SeriesReplicationFactor].Append(now, float64(snap.ReplicationFactor))
	s.series[SeriesStaleReads].Append(now, float64(s.store.StaleReads()))
	s.series[SeriesReadLatencyP99].Append(now, snap.ReadLatencyP99*1000)
	s.series[SeriesWriteLatencyP99].Append(now, snap.WriteLatencyP99*1000)

	if snap.ClusterSize > s.maxNodes {
		s.maxNodes = snap.ClusterSize
	}
	if snap.ClusterSize < s.minNodes && snap.ClusterSize > 0 {
		s.minNodes = snap.ClusterSize
	}

	// Per-tenant bookkeeping: each tenant's ground-truth window feeds its own
	// SLA tracker and metrics stream, and the resulting signals ride on the
	// snapshot so the tenant-aware controller can act on the worst
	// penalty-weighted tenant instead of the aggregate.
	if len(s.tenantRuntimes) > 0 {
		// A fresh slice per sample: the snapshot (and through it the signal
		// slice) is retained inside controller decisions, so reusing one
		// backing array would retroactively rewrite the decision log.
		sigs := make([]tenant.Signal, len(s.tenantRuntimes))
		for i, rt := range s.tenantRuntimes {
			trueWindow := s.store.TenantRecentWindowQuantile(rt.ID(), 0.95)
			sig := rt.Observe(now, snap.Interval, trueWindow)
			sigs[i] = sig
			s.series[tenantSeriesName(rt.Name(), SeriesWindowP95)].Append(now, trueWindow*1000)
			s.series[tenantSeriesName(rt.Name(), SeriesOfferedLoad)].Append(now, sig.OfferedOpsPerSec)
			s.series[tenantSeriesName(rt.Name(), SeriesReadLatencyP99)].Append(now, sig.ReadLatencyP99*1000)
		}
		snap.Tenants = sigs
	}

	// Drive the configured controller at its own interval.
	if now-s.lastControl >= s.spec.Controller.ControlInterval || s.lastControl == 0 {
		s.lastControl = now
		switch {
		case s.smart != nil:
			s.smart.Step(snap)
		case s.reactive != nil:
			s.reactive.Step(snap)
		}
	}

	// Hand the closed window to the registered observer last, once the
	// window's bookkeeping and control are done. The map is built per window
	// only when a hook is installed, so unobserved runs pay nothing.
	if s.sampleHook != nil {
		w := SampleWindow{At: now, Values: make(map[string]float64, len(s.series))}
		for name, ts := range s.series {
			if p, ok := ts.Last(); ok {
				w.Values[name] = p.Value
			}
		}
		if err := s.sampleHook(w); err != nil {
			s.abort(err)
		}
	}
}
