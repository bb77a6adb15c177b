package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"autonosql"
	"autonosql/internal/cluster"
	"autonosql/internal/core"
	"autonosql/internal/metrics"
	"autonosql/internal/monitor"
	"autonosql/internal/obs"
	"autonosql/internal/sim"
	"autonosql/internal/sla"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
	"autonosql/internal/workload"
)

// The layer probes drive each internal package's public entry points in
// isolation, at the workload's shape, and report nanoseconds per call as the
// median of five batches. They are the per-layer "time busy" numbers the
// harness can take from outside the program; spans inside it are a later
// issue. A probe says what a call costs alone, with warm caches — the
// profile's package shares say what the calls cost together.

// probeShape is what the probes need to know about a workload.
type probeShape struct {
	nodes     int
	rf        int
	readCL    store.ConsistencyLevel
	writeCL   store.ConsistencyLevel
	keys      autonosql.KeyDistribution
	keyspace  int
	rate      float64
	readFrac  float64
	heapDepth int // the workload's sim.heap_peak, filled in from the counts
	scale     float64
}

// shapeOf reads the probe shape off a scenario spec. Multi-tenant specs
// describe their traffic per tenant; the probes then take the first tenant's
// key distribution and the tenants' combined base rate.
func shapeOf(spec autonosql.ScenarioSpec) probeShape {
	sh := probeShape{
		nodes:    spec.Cluster.InitialNodes,
		rf:       spec.Store.ReplicationFactor,
		keys:     spec.Workload.Keys,
		keyspace: spec.Workload.Keyspace,
		rate:     spec.Workload.BaseOpsPerSec,
		readFrac: spec.Workload.ReadFraction,
	}
	if len(spec.Tenants) > 0 {
		sh.rate = 0
		for _, t := range spec.Tenants {
			sh.rate += t.Workload.BaseOpsPerSec
		}
		sh.keys = spec.Tenants[0].Workload.Keys
		sh.keyspace = spec.Tenants[0].Workload.Keyspace
		sh.readFrac = spec.Tenants[0].Workload.ReadFraction
	}
	if sh.keyspace <= 0 {
		sh.keyspace = 10000
	}
	// The spec was validated by the workload's own runs; an unparsable level
	// cannot reach here.
	sh.readCL, _ = store.ParseConsistencyLevel(string(spec.Store.ReadConsistency))
	sh.writeCL, _ = store.ParseConsistencyLevel(string(spec.Store.WriteConsistency))
	return sh
}

func (sh probeShape) chooser(rng *rand.Rand) workload.KeyChooser {
	switch sh.keys {
	case autonosql.KeysUniform:
		return workload.NewUniformKeys(sh.keyspace, rng)
	case autonosql.KeysLatest:
		return workload.NewLatestKeys(sh.keyspace, rng)
	default:
		return workload.NewZipfianKeys(sh.keyspace, 1.3, rng)
	}
}

// iters scales a probe's iteration count with -scale, keeping enough work to
// time.
func (sh probeShape) iters(n int) int {
	n = int(float64(n) * sh.scale)
	if n < 16 {
		n = 16
	}
	return n
}

// probeBatches is how many batches each probe times; the median is reported.
const probeBatches = 5

// perCall times batch(n) probeBatches times and returns the median
// nanoseconds per iteration.
func perCall(n int, batch func(n int)) float64 {
	var v []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		batch(n)
		v = append(v, float64(time.Since(start))/float64(n))
	}
	return median(v)
}

// probeSink keeps the compiler from discarding a probe's result.
var probeSink float64

// noopTarget completes every operation at once, so a probe times the caller.
type noopTarget struct{}

func (noopTarget) Read(key store.Key, cb func(store.Result)) {
	if cb != nil {
		cb(store.Result{Kind: store.OpRead, Key: key, Latency: time.Millisecond})
	}
}

func (noopTarget) Write(key store.Key, cb func(store.Result)) {
	if cb != nil {
		cb(store.Result{Kind: store.OpWrite, Key: key, Latency: time.Millisecond})
	}
}

// noopActuator accepts every action and changes nothing, so core.step_ns
// times analysis and planning alone.
type noopActuator struct{}

func (noopActuator) ClusterSize() int                                { return 3 }
func (noopActuator) ReplicationFactor() int                          { return 3 }
func (noopActuator) ReadConsistency() store.ConsistencyLevel         { return store.One }
func (noopActuator) WriteConsistency() store.ConsistencyLevel        { return store.One }
func (noopActuator) SetReadConsistency(store.ConsistencyLevel) error { return nil }
func (noopActuator) SetWriteConsistency(store.ConsistencyLevel) error {
	return nil
}
func (noopActuator) SetReplicationFactor(int) error { return nil }
func (noopActuator) AddNode() error                 { return nil }
func (noopActuator) RemoveNode() error              { return nil }

// storeRig wires an engine, a cluster and a store at the workload's shape,
// with a monitor in front, and a table of keys drawn from the workload's
// distribution (drawn up front, so op probes do not time the chooser).
type storeRig struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	store   *store.Store
	monitor *monitor.Monitor
	keys    []store.Key
	fired   int
	issued  int
}

func newStoreRig(sh probeShape) (*storeRig, error) {
	engine := sim.NewEngine()
	rnd := sim.NewRandSource(1)
	ccfg := cluster.DefaultConfig()
	ccfg.InitialNodes = sh.nodes
	cl := cluster.New(ccfg, engine, rnd)
	scfg := store.DefaultConfig()
	scfg.ReplicationFactor = sh.rf
	scfg.ReadConsistency = sh.readCL
	scfg.WriteConsistency = sh.writeCL
	st, err := store.New(scfg, engine, cl, rnd)
	if err != nil {
		return nil, fmt.Errorf("probe rig: %w", err)
	}
	mcfg := monitor.DefaultConfig()
	mcfg.ProbeRate = 0
	mcfg.UseActive = false
	mon, err := monitor.New(mcfg, engine, st, cl)
	if err != nil {
		return nil, fmt.Errorf("probe rig: %w", err)
	}
	keys := make([]store.Key, 4096)
	ch := sh.chooser(rnd.Stream("keys"))
	for i := range keys {
		keys[i] = ch.NextWrite()
	}
	return &storeRig{engine: engine, cluster: cl, store: st, monitor: mon, keys: keys}, nil
}

func (r *storeRig) done(store.Result) { r.fired++ }

// settle steps the engine until every issued operation has completed.
func (r *storeRig) settle() {
	for r.fired < r.issued {
		if !r.engine.Step() {
			return
		}
	}
}

func (r *storeRig) write(t workload.Target) {
	t.Write(r.keys[r.issued%len(r.keys)], r.done)
	r.issued++
}

func (r *storeRig) read(t workload.Target) {
	t.Read(r.keys[r.issued%len(r.keys)], r.done)
	r.issued++
}

// timedEvery runs between() then times call(), n times, and returns the mean
// nanoseconds of call alone: for calls whose cost depends on fresh state.
func timedEvery(n int, between, call func()) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		between()
		start := time.Now()
		call()
		total += time.Since(start)
	}
	return float64(total) / float64(n)
}

func medianOfBatches(batch func() float64) float64 {
	var v []float64
	for b := 0; b < probeBatches; b++ {
		v = append(v, batch())
	}
	return median(v)
}

// runProbes runs every layer probe at the given shape.
func runProbes(sh probeShape) (map[string]float64, error) {
	m := map[string]float64{}
	noop := func(time.Duration) {}

	// sim
	{
		e := sim.NewEngine()
		depth := sh.heapDepth
		for i := 0; i < depth; i++ {
			e.After(time.Duration(i+1)*time.Millisecond, noop)
		}
		m["sim.schedule_fire_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				e.After(time.Duration(depth+1)*time.Millisecond, noop)
				e.Step()
			}
		})
		rng := rand.New(rand.NewSource(1))
		m["sim.lognormal_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += sim.LogNormal(rng, 0.001, 0.3)
			}
		})
		m["sim.exponential_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += sim.Exponential(rng, 0.001)
			}
		})
		z := sim.NewZipf(rng, 1.3, uint64(sh.keyspace))
		m["sim.zipf_next_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += float64(z.Next())
			}
		})
		var perRound []float64
		for b := 0; b < probeBatches; b++ {
			se, err := sim.NewShardedEngine(10*time.Millisecond, 4)
			if err != nil {
				return nil, fmt.Errorf("lockstep probe: %w", err)
			}
			for lane := 0; lane < 4; lane++ {
				lead := 1
				if lane == 0 {
					lead = 0
				}
				if _, err := se.NewLane(lead); err != nil {
					return nil, fmt.Errorf("lockstep probe: %w", err)
				}
			}
			until := time.Duration(sh.iters(500)) * 10 * time.Millisecond
			start := time.Now()
			if err := se.Run(until); err != nil {
				return nil, fmt.Errorf("lockstep probe: %w", err)
			}
			if rounds := se.Profile().Rounds; rounds > 0 {
				perRound = append(perRound, float64(time.Since(start))/float64(rounds))
			}
		}
		m["sim.lockstep_round_ns"] = median(perRound)
	}

	// store, through a rig at the workload's nodes / RF / CL / keys
	{
		rig, err := newStoreRig(sh)
		if err != nil {
			return nil, err
		}
		m["store.write_ns"] = perCall(sh.iters(20000), func(n int) {
			for i := 0; i < n; i++ {
				rig.write(rig.store)
				rig.settle()
			}
		})
		for range rig.keys { // every key the reads will ask for exists
			rig.write(rig.store)
		}
		rig.settle()
		m["store.read_ns"] = perCall(sh.iters(20000), func(n int) {
			for i := 0; i < n; i++ {
				rig.read(rig.store)
				rig.settle()
			}
		})

		ring := store.NewRing(0)
		for id := 1; id <= sh.nodes; id++ {
			ring.Add(cluster.NodeID(id))
		}
		var buf []cluster.NodeID
		m["store.ring_lookup_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				buf = ring.AppendReplicasFor(buf[:0], rig.keys[i%len(rig.keys)], sh.rf)
			}
		})

		// Fill the cumulative histograms the way a long run does, then time
		// the calls a sampling tick makes, with one operation between calls
		// so each call sees fresh samples (Observe invalidates the sort).
		for rig.issued < sh.iters(metrics.DefaultHistogramCap) {
			for j := 0; j < 32; j++ {
				rig.write(rig.store)
				rig.read(rig.store)
			}
			rig.settle()
		}
		oneOp := func() { rig.write(rig.store); rig.settle() }
		m["store.stats_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(8), oneOp, func() { probeSink += float64(rig.store.Stats().Reads) })
		})
		m["store.recent_window_q_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(64), oneOp, func() { probeSink += rig.store.RecentWindowQuantile(0.95) })
		})

		// cluster
		node := rig.cluster.Nodes()[0]
		now := rig.engine.Now()
		m["cluster.enqueue_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				now += time.Millisecond
				d, _ := node.Enqueue(now, cluster.ForegroundOp)
				probeSink += float64(d)
			}
		})
		net := rig.cluster.Network()
		m["cluster.net_delay_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += float64(net.NodeToNode())
			}
		})
		m["cluster.available_nodes_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += float64(len(rig.cluster.AvailableNodes()))
			}
		})
	}

	// monitor, on a fresh rig so its windows hold only its own traffic
	{
		rig, err := newStoreRig(sh)
		if err != nil {
			return nil, err
		}
		hundredOps := func() {
			for j := 0; j < 50; j++ {
				rig.write(rig.monitor)
				rig.read(rig.monitor)
			}
			rig.settle()
		}
		m["monitor.snapshot_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(20), hundredOps, func() { probeSink += rig.monitor.Snapshot().WindowP95 })
		})
		at := time.Duration(0)
		m["monitor.observe_write_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				at += time.Millisecond
				rig.monitor.ObserveWrite(store.WriteObservation{
					IssuedAt: at, AckedAt: at + time.Millisecond, LastAckAt: at + 3*time.Millisecond,
					Replicas: sh.rf, Acked: sh.rf,
				})
			}
		})
	}

	// workload
	{
		ch := sh.chooser(rand.New(rand.NewSource(1)))
		m["workload.next_key_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += float64(len(ch.NextRead()))
			}
		})
		var perArrival []float64
		for b := 0; b < probeBatches; b++ {
			engine := sim.NewEngine()
			rnd := sim.NewRandSource(1)
			gen, err := workload.NewGenerator(workload.Config{
				Profile: workload.ConstantProfile{OpsPerSec: sh.rate},
				Mix:     workload.Mix{ReadFraction: sh.readFrac},
				Keys:    sh.chooser(rnd.Stream("keys")),
			}, engine, noopTarget{}, rnd)
			if err != nil {
				return nil, fmt.Errorf("arrival probe: %w", err)
			}
			gen.Start()
			virtual := time.Duration(float64(sh.iters(100000)) / sh.rate * float64(time.Second))
			start := time.Now()
			if err := engine.Run(virtual); err != nil {
				return nil, fmt.Errorf("arrival probe: %w", err)
			}
			wall := time.Since(start)
			gen.Stop()
			st := gen.Stats()
			if issued := st.ReadsIssued + st.WritesIssued; issued > 0 {
				perArrival = append(perArrival, float64(wall)/float64(issued))
			}
		}
		m["workload.arrival_ns"] = median(perArrival)
	}

	// metrics
	{
		h := metrics.NewHistogram(metrics.DefaultHistogramCap)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < sh.iters(metrics.DefaultHistogramCap); i++ {
			h.Observe(rng.Float64())
		}
		m["metrics.hist_observe_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				h.Observe(rng.Float64())
			}
		})
		m["metrics.hist_snapshot_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(8), func() { h.Observe(rng.Float64()) }, func() { probeSink += h.Snapshot().P95 })
		})
		ws := metrics.NewWindowedStat(monitor.DefaultConfig().WindowSampleSize)
		m["metrics.windowed_observe_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				ws.Observe(rng.Float64())
			}
		})
		qs := []float64{0.5, 0.95, 0.99}
		var dst []float64
		m["metrics.windowed_quantiles_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(200), func() { ws.Observe(rng.Float64()) }, func() { dst = ws.Quantiles(qs, dst[:0]) })
		})
		ts := metrics.NewTimeSeries("probe")
		at := time.Duration(0)
		m["metrics.series_append_ns"] = perCall(sh.iters(100000), func(n int) {
			for i := 0; i < n; i++ {
				at += time.Second
				ts.Append(at, 1)
			}
		})
	}

	// core, sla
	{
		ctl, err := core.New(core.DefaultConfig(sla.Default()), noopActuator{})
		if err != nil {
			return nil, fmt.Errorf("controller probe: %w", err)
		}
		snap := monitor.Snapshot{
			Interval: 10 * time.Second, WindowMean: 0.02, WindowP50: 0.02, WindowP95: 0.05, WindowP99: 0.08,
			WindowSamples: 100, ReadLatencyP99: 0.005, WriteLatencyP99: 0.006, ObservedOpsPerSec: 2000,
			MeanUtilization: 0.5, MaxUtilization: 0.6, ClusterSize: 3, ReplicationFactor: 3,
			ReadConsistency: store.One, WriteConsistency: store.One,
		}
		m["core.step_ns"] = perCall(sh.iters(2000), func(n int) {
			for i := 0; i < n; i++ {
				snap.At += 10 * time.Second
				probeSink += float64(ctl.Step(snap).ClusterSize)
			}
		})
		tr := sla.NewTracker(sla.Default())
		ob := sla.Observation{Interval: 10 * time.Second, WindowP95: 0.05, ReadLatencyP99: 0.005, WriteLatencyP99: 0.006}
		m["sla.observe_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				ob.At += 10 * time.Second
				probeSink += float64(len(tr.Observe(ob)))
			}
		})
	}

	// tenant
	{
		var lim tenant.Limiter
		lim.SetRate(1000, 0)
		now := time.Duration(0)
		m["tenant.admit_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				now += time.Millisecond
				if lim.Admit(now) {
					probeSink++
				}
			}
		})
		rt, err := tenant.NewRuntime(1, "probe", tenant.Gold, noopTarget{})
		if err != nil {
			return nil, fmt.Errorf("tenant probe: %w", err)
		}
		clock := time.Duration(0)
		if err := rt.EnableAdmission(func() time.Duration { return clock }, func(bool) {}); err != nil {
			return nil, fmt.Errorf("tenant probe: %w", err)
		}
		if err := rt.Throttle(1000); err != nil {
			return nil, fmt.Errorf("tenant probe: %w", err)
		}
		done := func(store.Result) {}
		m["tenant.runtime_op_ns"] = perCall(sh.iters(200000), func(n int) {
			for i := 0; i < n; i++ {
				clock += time.Millisecond
				rt.Write("key-1", done)
			}
		})
		hundredOps := func() {
			for j := 0; j < 50; j++ {
				clock += time.Millisecond
				rt.Write("key-1", done)
				rt.Read("key-1", done)
			}
		}
		m["tenant.observe_ns"] = medianOfBatches(func() float64 {
			return timedEvery(sh.iters(50), hundredOps, func() {
				probeSink += rt.Observe(clock, 10*time.Second, 0.05).WindowP95
			})
		})
	}

	// obs
	{
		t := obs.NewTracer(1, 1024)
		now := time.Duration(0)
		m["obs.span_ns"] = perCall(sh.iters(100000), func(n int) {
			for i := 0; i < n; i++ {
				now += time.Millisecond
				tr := t.Begin("probe", true, "key-1", now)
				for p := 0; p < 6; p++ {
					tr.Add(now, "phase", p)
				}
				t.Finish(tr, now+time.Millisecond, "")
			}
		})
		traces := t.Traces()
		var writeErr error
		m["obs.jsonl_ns_per_span"] = perCall(len(traces), func(int) {
			if err := obs.WriteJSONL(io.Discard, traces); err != nil {
				writeErr = err
			}
		})
		if writeErr != nil {
			return nil, fmt.Errorf("span export probe: %w", writeErr)
		}
	}
	return m, nil
}
