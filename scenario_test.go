package autonosql

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"autonosql/internal/cluster"
)

// quickSpec returns a scenario small enough for unit tests: 90 simulated
// seconds of moderate load on three nodes.
func quickSpec() ScenarioSpec {
	spec := DefaultScenarioSpec()
	spec.Duration = 90 * time.Second
	spec.SampleInterval = 5 * time.Second
	spec.Workload.BaseOpsPerSec = 1200
	spec.Workload.Keyspace = 2000
	spec.Controller.Mode = ControllerNone
	spec.Controller.ControlInterval = 5 * time.Second
	return spec
}

func runScenario(t *testing.T, spec ScenarioSpec) *Report {
	t.Helper()
	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	rep, err := sc.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestScenarioRunProducesReport(t *testing.T) {
	rep := runScenario(t, quickSpec())

	if rep.Reads == 0 || rep.Writes == 0 {
		t.Fatalf("no traffic recorded: %d reads, %d writes", rep.Reads, rep.Writes)
	}
	if rep.Window.P95 <= 0 {
		t.Fatal("ground-truth window p95 is zero; the store recorded no windows")
	}
	if rep.Window.P50 > rep.Window.P95 || rep.Window.P95 > rep.Window.Max {
		t.Fatalf("window percentiles not ordered: %+v", rep.Window)
	}
	if rep.ReadLatency.P99 <= 0 || rep.WriteLatency.P99 <= 0 {
		t.Fatal("latency percentiles are zero")
	}
	if rep.EstimatedWindowP95 <= 0 {
		t.Fatal("monitor produced no window estimate")
	}
	if rep.Cost.Total <= 0 || rep.Cost.NodeHours <= 0 {
		t.Fatalf("cost not accounted: %+v", rep.Cost)
	}
	if rep.ComplianceRatio < 0 || rep.ComplianceRatio > 1 {
		t.Fatalf("compliance ratio out of range: %v", rep.ComplianceRatio)
	}
	if rep.FinalConfiguration.ClusterSize != 3 || rep.FinalConfiguration.ReplicationFactor != 3 {
		t.Fatalf("unexpected final configuration %+v", rep.FinalConfiguration)
	}
	if rep.Reconfigurations != 0 || len(rep.Decisions) != 0 {
		t.Fatal("ControllerNone must not reconfigure anything")
	}

	for _, name := range []string{SeriesWindowP95, SeriesOfferedLoad, SeriesClusterSize, SeriesUtilization} {
		pts := rep.Series[name]
		if len(pts) < 10 {
			t.Errorf("series %s has only %d points", name, len(pts))
		}
	}
	text := rep.String()
	for _, want := range []string{"inconsistency window", "SLA", "cost", "configuration"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
	if plot := rep.PlotSeries(SeriesWindowP95, 40); !strings.Contains(plot, SeriesWindowP95) {
		t.Error("PlotSeries produced no output for a populated series")
	}
	if plot := rep.PlotSeries("no-such-series", 40); plot != "" {
		t.Error("PlotSeries should return empty output for unknown series")
	}
}

func TestScenarioIsDeterministic(t *testing.T) {
	spec := quickSpec()
	spec.Duration = 45 * time.Second
	a := runScenario(t, spec)
	b := runScenario(t, spec)
	if a.Reads != b.Reads || a.Writes != b.Writes || a.StaleReads != b.StaleReads {
		t.Fatalf("same seed produced different traffic: %d/%d/%d vs %d/%d/%d",
			a.Reads, a.Writes, a.StaleReads, b.Reads, b.Writes, b.StaleReads)
	}
	if a.Window.P95 != b.Window.P95 || a.Cost.Total != b.Cost.Total {
		t.Fatalf("same seed produced different outcomes: window %v vs %v, cost %v vs %v",
			a.Window.P95, b.Window.P95, a.Cost.Total, b.Cost.Total)
	}

	spec.Seed = 999
	c := runScenario(t, spec)
	if c.Reads == a.Reads && c.Window.P95 == a.Window.P95 {
		t.Fatal("different seeds produced identical runs; randomness is not wired to the seed")
	}
}

func TestScenarioRunOnlyOnce(t *testing.T) {
	sc, err := NewScenario(quickSpec())
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := sc.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestScenarioInterventions(t *testing.T) {
	spec := quickSpec()
	spec.Workload.BaseOpsPerSec = 800
	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}

	var before, after ConsistencyLevel
	var failErr, recoverErr error
	sc.At(20*time.Second, func(h *Handle) {
		before = h.WriteConsistency()
		if err := h.SetWriteConsistency(ConsistencyQuorum); err != nil {
			t.Errorf("SetWriteConsistency: %v", err)
		}
		after = h.WriteConsistency()
	})
	sc.At(30*time.Second, func(h *Handle) {
		failErr = h.FailNode(0)
	})
	sc.At(50*time.Second, func(h *Handle) {
		recoverErr = h.RecoverNode()
		h.SetNetworkCongestion(0.4)
		h.SetBackgroundLoad(0.3)
	})
	sc.At(70*time.Second, func(h *Handle) {
		if h.Now() < 70*time.Second {
			t.Error("hook ran before its scheduled time")
		}
		if h.TrueWindowP95() < 0 || h.EstimatedWindowP95() < 0 {
			t.Error("window accessors returned negative values")
		}
		if h.ClusterSize() <= 0 || h.ReplicationFactor() <= 0 {
			t.Error("handle reports empty cluster")
		}
	})

	rep, err := sc.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if before != ConsistencyOne || after != ConsistencyQuorum {
		t.Fatalf("consistency change not visible through the handle: before=%s after=%s", before, after)
	}
	if failErr != nil || recoverErr != nil {
		t.Fatalf("fault injection failed: fail=%v recover=%v", failErr, recoverErr)
	}
	if rep.FinalConfiguration.WriteConsistency != ConsistencyQuorum {
		t.Fatalf("final write consistency = %s, want QUORUM", rep.FinalConfiguration.WriteConsistency)
	}
}

func TestScenarioHandleErrors(t *testing.T) {
	spec := quickSpec()
	spec.Duration = 30 * time.Second
	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	sc.At(5*time.Second, func(h *Handle) {
		if err := h.SetWriteConsistency("BOGUS"); err == nil {
			t.Error("invalid consistency level accepted")
		}
		if err := h.SetReadConsistency("BOGUS"); err == nil {
			t.Error("invalid consistency level accepted")
		}
		if err := h.FailNode(99); err == nil {
			t.Error("failing a non-existent node succeeded")
		}
		if err := h.RecoverNode(); err == nil {
			t.Error("recovering with no failed node succeeded")
		}
		if err := h.SetReplicationFactor(0); err == nil {
			t.Error("zero replication factor accepted")
		}
	})
	if _, err := sc.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestHandleRemoveNodeSparesPinnedClass pins that an intervention removes
// nodes under the controller's policy: while a shared node is up, no node
// dedicated to the pinned SLA class is removed.
func TestHandleRemoveNodeSparesPinnedClass(t *testing.T) {
	spec := quickSpec()
	spec.Duration = 30 * time.Second
	spec.Cluster.InitialNodes = 5
	spec.Controller.AllowPlacement = true
	spec.Tenants = []TenantSpec{
		{Name: "gold", Class: SLAGold, Workload: WorkloadSpec{Pattern: LoadConstant, BaseOpsPerSec: 300}},
		{Name: "bronze", Class: SLABronze, Workload: WorkloadSpec{Pattern: LoadConstant, BaseOpsPerSec: 300}},
	}
	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	// The oldest node is down while gold is pinned, so it stays shared.
	sc.At(5*time.Second, func(h *Handle) {
		if err := h.FailNode(0); err != nil {
			t.Fatalf("FailNode: %v", err)
		}
		if err := h.PinClass("gold"); err != nil {
			t.Fatalf("PinClass: %v", err)
		}
		if err := h.RecoverNode(); err != nil {
			t.Fatalf("RecoverNode: %v", err)
		}
		upByClass := func() map[string]int {
			up := map[string]int{}
			for _, n := range sc.cluster.Nodes() {
				if n.State() == cluster.NodeUp {
					up[n.Class()]++
				}
			}
			return up
		}
		before := upByClass()
		if before["gold"] == 0 || before[""] != 2 {
			t.Fatalf("before the removals %v nodes are up by class, want gold ones and 2 shared", before)
		}
		for i := 0; i < 2; i++ {
			if err := h.RemoveNode(); err != nil {
				t.Fatalf("RemoveNode %d: %v", i+1, err)
			}
		}
		if after := upByClass(); after["gold"] != before["gold"] || after[""] != 0 {
			t.Errorf("after two removals %v nodes are up by class, want all %d gold ones kept and both shared ones removed", after, before["gold"])
		}
	})
	if _, err := sc.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestScenarioSmartControllerActsOnStressedSystem(t *testing.T) {
	// Two small nodes, write-heavy load near saturation and a tight window
	// SLA: the smart controller must reconfigure (tighten consistency and/or
	// add nodes), and the report must carry its decisions.
	spec := DefaultScenarioSpec()
	spec.Duration = 4 * time.Minute
	spec.SampleInterval = 5 * time.Second
	spec.Cluster.InitialNodes = 2
	spec.Cluster.MinNodes = 2
	spec.Cluster.NodeOpsPerSec = 2500
	spec.Cluster.BootstrapTime = 30 * time.Second
	spec.Workload.BaseOpsPerSec = 3500
	spec.Workload.ReadFraction = 0.3
	spec.Workload.Keyspace = 2000
	spec.SLA.MaxWindowP95 = 40 * time.Millisecond
	spec.Controller.Mode = ControllerSmart
	spec.Controller.ControlInterval = 10 * time.Second

	rep := runScenario(t, spec)
	if rep.Reconfigurations == 0 {
		t.Fatal("smart controller never acted on a stressed system")
	}
	if len(rep.Decisions) == 0 {
		t.Fatal("no decisions recorded in the report")
	}
	if rep.MaxClusterSize < rep.MinClusterSize {
		t.Fatalf("cluster size bookkeeping broken: min=%d max=%d", rep.MinClusterSize, rep.MaxClusterSize)
	}
}

func TestScenarioReactiveControllerScalesOnCPU(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Duration = 4 * time.Minute
	spec.SampleInterval = 10 * time.Second
	spec.Cluster.InitialNodes = 2
	spec.Cluster.MinNodes = 2
	spec.Cluster.NodeOpsPerSec = 2000
	spec.Cluster.BootstrapTime = 30 * time.Second
	spec.Workload.BaseOpsPerSec = 3600
	spec.Workload.Keyspace = 2000
	spec.Controller.Mode = ControllerReactive
	spec.Controller.ControlInterval = 10 * time.Second

	rep := runScenario(t, spec)
	if rep.Reconfigurations == 0 {
		t.Fatal("reactive autoscaler never scaled an overloaded cluster")
	}
	if rep.MaxClusterSize <= 2 {
		t.Fatalf("cluster never grew: max size %d", rep.MaxClusterSize)
	}
}

func TestScenarioNoisyNeighbourWidensWindow(t *testing.T) {
	quiet := quickSpec()
	quiet.Duration = 2 * time.Minute
	quiet.Workload.BaseOpsPerSec = 2500
	noisy := quiet
	noisy.Cluster.NoisyNeighbour = true

	repQuiet := runScenario(t, quiet)
	repNoisy := runScenario(t, noisy)
	if repNoisy.Window.P95 <= repQuiet.Window.P95 {
		t.Fatalf("noisy-neighbour interference should widen the window: quiet p95=%v noisy p95=%v",
			repQuiet.Window.P95, repNoisy.Window.P95)
	}
}

// TestScenarioAllocBound pins the steady-state allocation behaviour at
// scenario level as an absolute per-operation bound: op state and completion
// records are recycled and fired events return to the pool, so the second
// 30 s of a run (60 000 operations at this spec's rate) may allocate only
// what the sampling ticks, series and growing reservoirs do — a small
// fraction of an object per operation.
func TestScenarioAllocBound(t *testing.T) {
	const ops, maxAllocsPerOp = 60_000, 0.05
	mallocs := func(d time.Duration) uint64 {
		spec := DefaultScenarioSpec()
		spec.Seed = 42
		spec.Duration = d
		spec.Workload.BaseOpsPerSec = 2000
		spec.Controller.Mode = ControllerNone
		sc, err := NewScenario(spec)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sc.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	growth := mallocs(time.Minute) - mallocs(30*time.Second)
	t.Logf("+30s simulated costs %d allocations", growth)
	if float64(growth) > maxAllocsPerOp*ops {
		t.Errorf("steady state allocates %.3f objects per op, want <= %v", float64(growth)/ops, maxAllocsPerOp)
	}
}

// TestNewScenarioNotSizedByKeyspace pins that per-key state is grown on first
// touch: assembling a scenario costs the same objects and bytes for a
// 10 000-key and a 200 000-key workload, whatever the distribution and with
// or without tenants, and the runs that follow still reach every key — the
// append-only "latest" keyspace past its initial size, a second tenant's
// window past the first's.
func TestNewScenarioNotSizedByKeyspace(t *testing.T) {
	specFor := func(keys KeyDistribution, keyspace int, tenants bool) ScenarioSpec {
		spec := quickSpec()
		spec.Duration = 20 * time.Second
		spec.Monitor.ActiveProbes = false // probes write keys of their own
		spec.Workload.Keys, spec.Workload.Keyspace = keys, keyspace
		if tenants {
			w := spec.Workload
			w.BaseOpsPerSec /= 2
			spec.Tenants = []TenantSpec{{Name: "a", Class: SLAGold, Workload: w}, {Name: "b", Class: SLABronze, Workload: w}}
		}
		return spec
	}
	// Objects and bytes of five NewScenario calls. Map buckets (hash seeds
	// differ per map) and the race detector jitter the count by a few
	// objects; anything sized by the keyspace would be 190 000 slots more.
	cost := func(spec ScenarioSpec) (objects, bytes int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			if _, err := NewScenario(spec); err != nil {
				t.Fatalf("NewScenario: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, keys := range []KeyDistribution{KeysUniform, KeysZipfian, KeysLatest} {
		for _, tenants := range []bool{false, true} {
			smallObjs, smallBytes := cost(specFor(keys, 10_000, tenants))
			largeObjs, largeBytes := cost(specFor(keys, 200_000, tenants))
			if d := largeObjs - smallObjs; d > 100 || d < -100 || largeBytes-smallBytes > 64<<10 {
				t.Errorf("%s tenants=%v: five NewScenario calls cost %d objects / %d bytes for 10k keys, %d / %d for 200k",
					keys, tenants, smallObjs, smallBytes, largeObjs, largeBytes)
			}
		}
	}

	run := func(spec ScenarioSpec) (*Scenario, *Report) {
		sc, err := NewScenario(spec)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		rep, err := sc.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.Writes == 0 || rep.FailedWrites != 0 {
			t.Fatalf("%d writes, %d failed", rep.Writes, rep.FailedWrites)
		}
		return sc, rep
	}
	// Every "latest" write inserts a new key beyond the initial 300.
	sc, rep := run(specFor(KeysLatest, 300, false))
	if got := sc.store.KeyCount(); uint64(got) < rep.Writes*9/10 {
		t.Errorf("latest keys: %d keys acknowledged after %d writes", got, rep.Writes)
	}
	// Two tenants of 300 uniform keys each own [0, 300) and [300, 600).
	sc, _ = run(specFor(KeysUniform, 300, true))
	if got := sc.store.KeyCount(); got <= 300 || got > 600 {
		t.Errorf("two 300-key tenants: %d keys acknowledged, want (300, 600]", got)
	}
}

// TestSmartControllerTightensWriteConsistency pins the paper's central knob
// end to end: with an SLA window bound tighter than CL=ONE replication can
// hold on an idle cluster, the smart controller attributes the window to
// loose consistency and raises the write level through the store actuator.
func TestSmartControllerTightensWriteConsistency(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Seed = 1
	spec.Duration = time.Minute
	spec.Workload.BaseOpsPerSec = 1500
	spec.SLA.MaxWindowP95 = 3 * time.Millisecond
	spec.Controller.Mode = ControllerSmart

	rep := runScenario(t, spec)
	if len(rep.Decisions) == 0 || !strings.Contains(rep.Decisions[0], "tighten-write-cl") ||
		!strings.Contains(rep.Decisions[0], "applied") {
		t.Fatalf("decisions = %q, want an applied tighten-write-cl first", rep.Decisions)
	}
	if got := rep.FinalConfiguration; got.ReadConsistency != ConsistencyOne || got.WriteConsistency != ConsistencyTwo {
		t.Fatalf("final cl = %s/%s, want ONE/TWO", got.ReadConsistency, got.WriteConsistency)
	}
}
