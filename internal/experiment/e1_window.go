package experiment

import (
	"fmt"
	"time"

	"autonosql"
	"autonosql/internal/cluster"
)

// e1BaseSpec is the common scenario every E1 cell starts from: a three-node
// cluster of 2000 ops/s nodes, RF=3, ONE/ONE consistency, a 50/50 YCSB-A
// style workload and no controller, so the raw dependence of the window on
// each parameter is visible.
func e1BaseSpec(scale Scale) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = 101
	spec.Duration = 2 * time.Minute
	if scale == ScaleQuick {
		spec.Duration = 30 * time.Second
	}
	spec.SampleInterval = 5 * time.Second
	spec.Cluster.InitialNodes = 3
	spec.Cluster.NodeOpsPerSec = 2000
	spec.Store.ReplicationFactor = 3
	spec.Store.WriteConsistency = autonosql.ConsistencyOne
	spec.Store.ReadConsistency = autonosql.ConsistencyOne
	spec.Workload.Pattern = autonosql.LoadConstant
	spec.Workload.ReadFraction = 0.5
	spec.Workload.Keyspace = 5000
	spec.Monitor.ActiveProbes = false // E1 measures ground truth only
	spec.Controller.Mode = autonosql.ControllerNone
	// A permissive SLA: E1 is not about compliance, only about the window.
	spec.SLA.MaxWindowP95 = 10 * time.Second
	return spec
}

// effectiveCapacity estimates the sustainable client operation rate of a
// cluster for a given mix: every operation costs one coordinator service
// time, reads additionally touch the contacted replicas that are not the
// coordinator, and writes additionally place a (cheaper) replication apply on
// every other replica. Load levels in the experiments are expressed as
// fractions of this capacity, so "70% load" means the same thing regardless
// of cluster size, replication factor or read/write mix.
func effectiveCapacity(nodes int, nodeOpsPerSec, readFraction float64, rf int) float64 {
	if nodes <= 0 || nodeOpsPerSec <= 0 {
		return 0
	}
	if rf > nodes {
		rf = nodes
	}
	service := 1.0 / nodeOpsPerSec // seconds of node time per foreground op
	replApply := cluster.ReplicationApplyShare * service
	n := float64(nodes)
	// A read at CL=ONE contacts one replica, which coincides with the
	// coordinator 1/n of the time.
	readCost := service * (2 - 1/n)
	// A write occupies the coordinator once and ships a replication apply to
	// every replica that is not the coordinator.
	writeCost := service + float64(replApply*float64(rf)*(1-1/n))
	perOp := float64(readFraction*readCost) + float64((1-readFraction)*writeCost)
	// perOp is in node-seconds per operation; the cluster supplies `nodes`
	// node-seconds per second.
	return n / perOp
}

// RunE1 reproduces the window parameter study (research plan step 1 and the
// Bermbach & Tai drift observation): how the inconsistency window depends on
// offered load, replication factor, write consistency level and
// noisy-neighbour interference. All cells of all four sub-studies are
// independent, so they run as one concurrent suite.
func RunE1(scale Scale) (*Result, error) {
	started := time.Now()
	res := &Result{ID: "E1", Title: "Inconsistency-window parameter study"}

	loads := []float64{0.30, 0.50, 0.70, 0.85, 0.95}
	rfs := []int{1, 2, 3, 5}
	levels := []autonosql.ConsistencyLevel{autonosql.ConsistencyOne, autonosql.ConsistencyTwo,
		autonosql.ConsistencyQuorum, autonosql.ConsistencyAll}
	if scale == ScaleQuick {
		loads = []float64{0.30, 0.70, 0.95}
		rfs = []int{1, 3, 5}
		levels = []autonosql.ConsistencyLevel{autonosql.ConsistencyOne, autonosql.ConsistencyQuorum, autonosql.ConsistencyAll}
	}
	noisies := []bool{false, true}

	var variants []autonosql.Variant
	for _, frac := range loads {
		spec := e1BaseSpec(scale)
		spec.Workload.BaseOpsPerSec = frac * effectiveCapacity(3, 2000, 0.5, 3)
		variants = append(variants, autonosql.Variant{Name: fmt.Sprintf("E1a load=%.2f", frac), Spec: spec})
	}
	for _, rf := range rfs {
		spec := e1BaseSpec(scale)
		spec.Seed = 102
		spec.Cluster.InitialNodes = 5 // room for RF=5
		spec.Workload.BaseOpsPerSec = 0.6 * effectiveCapacity(5, 2000, 0.5, 3)
		spec.Store.ReplicationFactor = rf
		variants = append(variants, autonosql.Variant{Name: fmt.Sprintf("E1b rf=%d", rf), Spec: spec})
	}
	for _, cl := range levels {
		spec := e1BaseSpec(scale)
		spec.Seed = 103
		spec.Workload.BaseOpsPerSec = 0.6 * effectiveCapacity(3, 2000, 0.5, 3)
		spec.Store.WriteConsistency = cl
		variants = append(variants, autonosql.Variant{Name: fmt.Sprintf("E1c cl=%s", cl), Spec: spec})
	}
	for _, noisy := range noisies {
		spec := e1BaseSpec(scale)
		spec.Seed = 104
		spec.Workload.BaseOpsPerSec = 0.6 * effectiveCapacity(3, 2000, 0.5, 3)
		spec.Cluster.NoisyNeighbour = noisy
		variants = append(variants, autonosql.Variant{Name: fmt.Sprintf("E1d noisy=%v", noisy), Spec: spec})
	}

	reports, err := runSuite(variants)
	if err != nil {
		return nil, fmt.Errorf("E1: %w", err)
	}

	// --- E1a: window vs offered load -------------------------------------
	ta := Table{
		ID:    "E1a",
		Title: "Inconsistency window vs offered load (RF=3, write CL=ONE, quiet platform)",
		Columns: []string{"load (frac of capacity)", "ops/s", "window p50 (ms)", "window p95 (ms)",
			"window p99 (ms)", "write p99 (ms)", "stale reads"},
	}
	for _, frac := range loads {
		rep := reports[fmt.Sprintf("E1a load=%.2f", frac)]
		ta.AddRow(fnum(frac), fops(rep.Spec.Workload.BaseOpsPerSec), fms(rep.Window.P50), fms(rep.Window.P95),
			fms(rep.Window.P99), fms(rep.WriteLatency.P99), fpct(rep.StaleReadRate))
	}
	ta.AddNote("expected shape: the window grows super-linearly as the load approaches the cluster capacity")
	res.Tables = append(res.Tables, ta)

	// --- E1b: window vs replication factor --------------------------------
	tb := Table{
		ID:    "E1b",
		Title: "Inconsistency window vs replication factor (load=60%, write CL=ONE)",
		Columns: []string{"replication factor", "window p50 (ms)", "window p95 (ms)", "window p99 (ms)",
			"write p99 (ms)", "stale reads"},
	}
	for _, rf := range rfs {
		rep := reports[fmt.Sprintf("E1b rf=%d", rf)]
		tb.AddRow(fint(rf), fms(rep.Window.P50), fms(rep.Window.P95), fms(rep.Window.P99),
			fms(rep.WriteLatency.P99), fpct(rep.StaleReadRate))
	}
	tb.AddNote("expected shape: at CL=ONE more replicas must converge asynchronously, so the window grows with RF")
	res.Tables = append(res.Tables, tb)

	// --- E1c: window vs write consistency level ---------------------------
	tc := Table{
		ID:    "E1c",
		Title: "Inconsistency window vs write consistency level (load=60%, RF=3)",
		Columns: []string{"write consistency", "window p50 (ms)", "window p95 (ms)", "window p99 (ms)",
			"write p99 (ms)", "stale reads"},
	}
	for _, cl := range levels {
		rep := reports[fmt.Sprintf("E1c cl=%s", cl)]
		tc.AddRow(string(cl), fms(rep.Window.P50), fms(rep.Window.P95), fms(rep.Window.P99),
			fms(rep.WriteLatency.P99), fpct(rep.StaleReadRate))
	}
	tc.AddNote("expected shape: stricter write consistency shrinks the window but inflates write latency")
	res.Tables = append(res.Tables, tc)

	// --- E1d: noisy-neighbour drift ---------------------------------------
	td := Table{
		ID:    "E1d",
		Title: "Inconsistency window with and without noisy-neighbour platform load (load=60%, RF=3, CL=ONE)",
		Columns: []string{"noisy neighbour", "window p50 (ms)", "window p95 (ms)", "window p99 (ms)",
			"write p99 (ms)", "stale reads"},
	}
	for _, noisy := range noisies {
		rep := reports[fmt.Sprintf("E1d noisy=%v", noisy)]
		td.AddRow(fbool(noisy), fms(rep.Window.P50), fms(rep.Window.P95), fms(rep.Window.P99),
			fms(rep.WriteLatency.P99), fpct(rep.StaleReadRate))
	}
	td.AddNote("expected shape: shared-platform interference widens the window at identical database configuration " +
		"and load (the drift Bermbach & Tai observed)")
	res.Tables = append(res.Tables, td)

	res.Elapsed = time.Since(started)
	return res, nil
}
