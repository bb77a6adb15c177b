package main

import (
	"time"

	"autonosql"
)

// sizing turns the catalogue's nominal virtual durations into the ones a run
// uses: -scale multiplies every virtual duration (run length, sampling and
// control periods, load-shape and fault timing), so a scaled run keeps the
// workload's proportions. Results at a scale other than 1 are marked
// non-comparable.
type sizing struct {
	scale float64
}

func (z sizing) dur(d time.Duration) time.Duration {
	return time.Duration(float64(d) * z.scale)
}

// count scales an operation cap, never below min.
func (z sizing) count(n, min int) int {
	n = int(float64(n)*z.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// Every workload starts from DefaultScenarioSpec; only the overrides are
// spelled out. The virtual durations are sized so one harness operation takes
// roughly 0.5-1 s on a 2-CPU box and a 10 s run holds at least five.

// steadySpec is the plain no-controller shape: constant 2000 ops/s, 50%
// zipfian reads over 10k keys, 3 nodes, RF 3, ONE/ONE.
func steadySpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = z.dur(150 * time.Second)
	spec.SampleInterval = z.dur(10 * time.Second)
	spec.Workload.BaseOpsPerSec = 2000
	spec.Controller.Mode = autonosql.ControllerNone
	return spec
}

// shardedSpec is steadySpec on the 4-lane lockstep engine at the default
// epoch.
func shardedSpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := steadySpec(seed, z)
	spec.Shards = 4
	return spec
}

// writeQuorumFaultsSpec uses the store the other way round: 90% writes,
// uniform keys over a 200k keyspace, QUORUM both ways on 5 nodes, with a node
// crash and a two-node partition.
func writeQuorumFaultsSpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = z.dur(120 * time.Second)
	spec.SampleInterval = z.dur(10 * time.Second)
	spec.Cluster.InitialNodes = 5
	spec.Store.ReadConsistency = autonosql.ConsistencyQuorum
	spec.Store.WriteConsistency = autonosql.ConsistencyQuorum
	spec.Workload.BaseOpsPerSec = 2000
	spec.Workload.ReadFraction = 0.1
	spec.Workload.Keys = autonosql.KeysUniform
	spec.Workload.Keyspace = 200000
	spec.Controller.Mode = autonosql.ControllerNone
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(z.dur(20*time.Second), z.dur(20*time.Second), 1),
		autonosql.PartitionFault(z.dur(60*time.Second), z.dur(20*time.Second), 2),
	}}
	return spec
}

// controlDenseSpec makes the monitoring side do the work: 1 s sampling, 5 s
// control, the smart predictive controller over a diurnal+spike load, with
// the audit trail and the engine self-profile on. The load stays inside what
// three nodes carry, so the cluster is healthy at every seed (full compliance,
// the same single proactive action); at a 2400 ops/s peak the moment the
// controller scaled out moved with the seed and split allocations and peak
// RSS into three groups.
func controlDenseSpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = z.dur(90 * time.Second)
	spec.SampleInterval = z.dur(time.Second)
	spec.Workload.Pattern = autonosql.LoadDiurnalSpike
	spec.Workload.BaseOpsPerSec = 800
	spec.Workload.PeakOpsPerSec = 1600
	spec.Workload.Period = z.dur(45 * time.Second)
	spec.Workload.PeakStart = z.dur(60 * time.Second)
	spec.Workload.PeakDuration = z.dur(18 * time.Second)
	spec.Monitor.ProbeRate = 20
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.Predictive = true
	spec.Controller.ControlInterval = z.dur(5 * time.Second)
	spec.Observe = &autonosql.ObserveSpec{Audit: true, Profile: true}
	return spec
}

// tenantsAdmissionSpec is the shape of the repo's throttled two-tenant
// golden (twoTenantSpec + throttledSpec in the root tests): a gold diurnal
// tenant and a bronze spike tenant on deliberately undersized nodes, with the
// non-predictive smart controller allowed to throttle.
func tenantsAdmissionSpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = z.dur(180 * time.Second)
	spec.SampleInterval = z.dur(10 * time.Second)
	spec.Cluster.InitialNodes = 3
	spec.Cluster.NodeOpsPerSec = 1200
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.Predictive = false
	spec.Controller.ControlInterval = z.dur(10 * time.Second)
	spec.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	spec.Tenants = []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "bronze", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2,
			Keyspace: 4000,
		}},
	}
	return spec
}

// suiteGridSpec is the sweep: 3 controllers x 2 cluster sizes x 2 load
// patterns = 12 variants over a 2000 ops/s base.
func suiteGridSpec(seed int64, z sizing, parallelism int) autonosql.SuiteSpec {
	base := autonosql.DefaultScenarioSpec()
	base.Seed = seed
	base.Duration = z.dur(30 * time.Second)
	base.SampleInterval = z.dur(5 * time.Second)
	base.Workload.BaseOpsPerSec = 2000
	base.Workload.PeakOpsPerSec = 3000
	base.Controller.ControlInterval = z.dur(5 * time.Second)
	return autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{
			Controllers: []autonosql.ControllerMode{
				autonosql.ControllerNone, autonosql.ControllerReactive, autonosql.ControllerSmart,
			},
			ClusterSizes: []int{3, 5},
			Patterns:     []autonosql.LoadPattern{autonosql.LoadConstant, autonosql.LoadDiurnalSpike},
		},
		Parallelism: parallelism,
	}
}

// daemonJobSpec is what each daemon job simulates: a short smart-controller
// run with sampled op tracing, the audit trail and the self-profile on.
func daemonJobSpec(seed int64, z sizing) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = z.dur(20 * time.Second)
	spec.SampleInterval = z.dur(5 * time.Second)
	spec.Workload.BaseOpsPerSec = 2000
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.ControlInterval = z.dur(5 * time.Second)
	spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 64, Audit: true, Profile: true}
	return spec
}
