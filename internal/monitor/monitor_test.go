package monitor

import (
	"fmt"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/workload"
)

type testRig struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	store   *store.Store
	monitor *Monitor
}

func newRig(t *testing.T, monCfg Config, storeCfg store.Config, seed int64) *testRig {
	t.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(seed)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	st, err := store.New(storeCfg, engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	m, err := New(monCfg, engine, st, cl)
	if err != nil {
		t.Fatalf("monitor.New: %v", err)
	}
	return &testRig{engine: engine, cluster: cl, store: st, monitor: m}
}

// drive routes load through the monitor (as an application would) for the
// given duration.
func (r *testRig) drive(t *testing.T, opsPerSec float64, readFraction float64, dur time.Duration) {
	t.Helper()
	src := sim.NewRandSource(99)
	gen, err := workload.NewGenerator(workload.Config{
		Profile: workload.ConstantProfile{OpsPerSec: opsPerSec},
		Mix:     workload.Mix{ReadFraction: readFraction},
		Keys:    workload.NewUniformKeys(300, src.Stream("keys")),
		Until:   dur,
	}, r.engine, r.monitor, src)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	gen.Start()
	if err := r.engine.Run(r.engine.Now() + dur + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil, nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestPassiveEstimatesWithoutProbes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseActive = false
	rig := newRig(t, cfg, store.DefaultConfig(), 1)
	rig.drive(t, 500, 0.5, 5*time.Second)

	snap := rig.monitor.Snapshot()
	if snap.WindowSamples == 0 {
		t.Fatal("passive monitoring produced no window samples")
	}
	if snap.ProbeOpsPerSec != 0 || snap.ProbeOverheadFraction != 0 {
		t.Fatalf("probe overhead reported without active probing: %+v", snap)
	}
	if snap.WindowP99 < 0 {
		t.Fatalf("negative window estimate %v", snap.WindowP99)
	}
	if rig.monitor.ProbeOps() != 0 {
		t.Fatal("probe ops counted without a prober")
	}
}

func TestActiveProbingProducesEstimatesAndOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsePassive = false
	cfg.ProbeRate = 5
	rig := newRig(t, cfg, store.DefaultConfig(), 2)
	rig.drive(t, 300, 0.5, 5*time.Second)

	snap := rig.monitor.Snapshot()
	if snap.WindowSamples == 0 {
		t.Fatal("active probing produced no window samples")
	}
	if rig.monitor.ProbeOps() == 0 {
		t.Fatal("probe ops not accounted")
	}
	if snap.ProbeOverheadFraction <= 0 || snap.ProbeOverheadFraction >= 1 {
		t.Fatalf("probe overhead fraction = %v, want in (0,1)", snap.ProbeOverheadFraction)
	}
}

func TestSnapshotClientMetrics(t *testing.T) {
	rig := newRig(t, DefaultConfig(), store.DefaultConfig(), 3)
	rig.drive(t, 400, 0.7, 5*time.Second)

	snap := rig.monitor.Snapshot()
	if snap.ObservedOpsPerSec < 200 || snap.ObservedOpsPerSec > 600 {
		t.Fatalf("ObservedOpsPerSec = %v, want ~400", snap.ObservedOpsPerSec)
	}
	if snap.ReadLatencyP99 <= 0 || snap.WriteLatencyP99 <= 0 {
		t.Fatalf("latency percentiles missing: %+v", snap)
	}
	if snap.ErrorRate != 0 {
		t.Fatalf("unexpected errors: %v", snap.ErrorRate)
	}
	if snap.ClusterSize != 3 || snap.ReplicationFactor != 3 {
		t.Fatalf("configuration view wrong: %+v", snap)
	}
	if snap.ReadConsistency != store.One || snap.WriteConsistency != store.One {
		t.Fatalf("consistency view wrong: %+v", snap)
	}
	if snap.MeanUtilization <= 0 || snap.MaxUtilization < snap.MeanUtilization {
		t.Fatalf("utilisation implausible: %+v", snap)
	}

	// Interval accumulators reset: an immediate second snapshot sees ~0 ops.
	snap2 := rig.monitor.Snapshot()
	if snap2.ObservedOpsPerSec > snap.ObservedOpsPerSec/10 {
		t.Fatalf("interval counters not reset: %v", snap2.ObservedOpsPerSec)
	}
}

func TestErrorRateReported(t *testing.T) {
	storeCfg := store.DefaultConfig()
	storeCfg.WriteConsistency = store.All
	rig := newRig(t, DefaultConfig(), storeCfg, 4)
	// Fail two nodes: CL=ALL writes become unavailable.
	nodes := rig.cluster.AvailableNodes()
	if err := rig.cluster.FailNode(nodes[0].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := rig.cluster.FailNode(nodes[1].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	rig.drive(t, 200, 0.0, 3*time.Second)
	snap := rig.monitor.Snapshot()
	if snap.ErrorRate <= 0 {
		t.Fatalf("error rate = %v, want > 0 with failed replicas and CL=ALL", snap.ErrorRate)
	}
}

func TestPassiveEstimateTracksTrueWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.UseActive = false
	storeCfg := store.DefaultConfig()
	storeCfg.ReadRepair = false
	storeCfg.AntiEntropyInterval = 0
	rig := newRig(t, cfg, storeCfg, 5)
	rig.drive(t, 3500, 0.2, 10*time.Second)

	trueP95 := rig.store.RecentWindowQuantile(0.95)
	estP95 := rig.monitor.WindowQuantile(0.95)
	if trueP95 <= 0 {
		t.Skip("load did not produce a measurable window; nothing to compare")
	}
	if estP95 <= 0 {
		t.Fatal("estimator saw nothing although the true window is positive")
	}
	ratio := estP95 / trueP95
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("passive estimate implausibly far from truth: est=%.4fs true=%.4fs", estP95, trueP95)
	}
}

func TestProberLifecycle(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(6)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	var estimates []float64
	p, err := NewProber(defaultProberConfig(10), engine, st, func(w float64, ops int) {
		if ops < 2 {
			t.Errorf("probe used %d ops, want >= 2", ops)
		}
		estimates = append(estimates, w)
	})
	if err != nil {
		t.Fatalf("NewProber: %v", err)
	}
	if err := engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Stop()
	if p.Started() == 0 || p.Completed() == 0 {
		t.Fatalf("probes started=%d completed=%d", p.Started(), p.Completed())
	}
	if len(estimates) == 0 {
		t.Fatal("no estimates delivered")
	}
	for _, e := range estimates {
		if e < 0 {
			t.Fatalf("negative window estimate %v", e)
		}
	}
}

func TestProberValidation(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(7)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	if _, err := NewProber(ProberConfig{Rate: 1}, nil, st, func(float64, int) {}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewProber(ProberConfig{Rate: 0}, engine, st, func(float64, int) {}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewProber(ProberConfig{Rate: 1}, engine, st, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

func TestProberTimeoutPath(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(8)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	storeCfg := store.DefaultConfig()
	storeCfg.HintedHandoff = true
	storeCfg.ReadRepair = false
	storeCfg.AntiEntropyInterval = 0
	st, err := store.New(storeCfg, engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	timeouts := 0
	p, err := NewProber(ProberConfig{Rate: 2, Timeout: 200 * time.Millisecond, PollInterval: 20 * time.Millisecond},
		engine, st, func(w float64, _ int) {
			if w >= 0.2 {
				timeouts++
			}
		})
	if err != nil {
		t.Fatalf("NewProber: %v", err)
	}
	// Fail the replica that serves CL=ONE reads for many keys: some probes
	// will poll a replica that never converges and hit the timeout.
	for i, n := range cl.AvailableNodes() {
		if i < 2 {
			if err := cl.FailNode(n.ID()); err != nil {
				t.Fatalf("FailNode: %v", err)
			}
		}
	}
	if err := engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Stop()
	// With two of three replicas down, CL=ONE writes land only on the
	// survivor; probes still complete because reads hit the same survivor.
	// The timeout path is exercised when reads fail or lag; accept either a
	// timeout or full completion, but the prober must not wedge.
	if p.Started() == 0 {
		t.Fatal("prober did not start any probes")
	}
	_ = timeouts
	if p.Completed()+p.TimedOut() == 0 {
		t.Fatal("no probe reached a terminal state")
	}
}

// TestProbeFailureRecordedNotSilent pins the fault-visibility regression: a
// probe whose write is rejected by a crashed/partitioned store must be
// counted as a failure AND feed a censored (timeout-valued) estimate into the
// monitor's window series, instead of silently disappearing and leaving the
// controller blind while divergence is worst.
func TestProbeFailureRecordedNotSilent(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(12)
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = 3
	cl := cluster.New(clusterCfg, engine, src)
	storeCfg := store.DefaultConfig()
	storeCfg.WriteConsistency = store.All
	st, err := store.New(storeCfg, engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	const timeout = 500 * time.Millisecond
	var estimates []float64
	p, err := NewProber(ProberConfig{Rate: 5, Timeout: timeout, PollInterval: 20 * time.Millisecond},
		engine, st, func(w float64, _ int) { estimates = append(estimates, w) })
	if err != nil {
		t.Fatalf("NewProber: %v", err)
	}
	// Fail two of three nodes: CL=ALL probe writes are rejected outright.
	nodes := cl.AvailableNodes()
	if err := cl.FailNode(nodes[0].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := cl.FailNode(nodes[1].ID()); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if err := engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Stop()
	if p.Failed() == 0 {
		t.Fatal("probe writes against a two-thirds-failed cluster were not counted as failures")
	}
	censored := 0
	for _, e := range estimates {
		if e == timeout.Seconds() {
			censored++
		}
	}
	if censored == 0 {
		t.Fatalf("no censored timeout estimates recorded for %d failed probes (estimates: %v)",
			p.Failed(), estimates)
	}
}

func TestSnapshotWindowGrowsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	run := func(rate float64) float64 {
		cfg := DefaultConfig()
		cfg.ProbeRate = 2
		storeCfg := store.DefaultConfig()
		storeCfg.ReadRepair = false
		storeCfg.AntiEntropyInterval = 0
		rig := newRig(t, cfg, storeCfg, 9)
		rig.drive(t, rate, 0.3, 10*time.Second)
		return rig.monitor.WindowQuantile(0.95)
	}
	low := run(300)
	high := run(4000)
	if high <= low {
		t.Fatalf("estimated window did not grow with load: low=%v high=%v", low, high)
	}
}

func TestMonitorAsTargetKeysIndependent(t *testing.T) {
	// Sanity check that probe keys do not collide with application keys.
	rig := newRig(t, DefaultConfig(), store.DefaultConfig(), 10)
	done := false
	rig.monitor.Write(store.Key(fmt.Sprintf("%s-1", "__probe")), func(store.Result) { done = true })
	for i := 0; i < 10000 && !done; i++ {
		if !rig.engine.Step() {
			break
		}
	}
	if !done {
		t.Fatal("write through monitor never completed")
	}
}

// defaultProberConfig is the prober config Monitor builds from DefaultConfig
// at the given rate.
func defaultProberConfig(rate float64) ProberConfig {
	d := DefaultConfig()
	return ProberConfig{Rate: rate, PollInterval: d.ProbePollInterval, Timeout: d.ProbeTimeout}
}
