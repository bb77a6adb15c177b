package store_test

import (
	"os"
	"reflect"
	"testing"
	"time"

	"autonosql"
	"autonosql/internal/cluster"
	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// TestOpStateReuseInvisible proves that recycling op state changes nothing a
// run reports: the same scenarios and the same store-level fault script are
// run with recycling on and with the test hook that leaves every released op
// state, window tracker and hint to the garbage collector — each operation
// then gets fresh records, as before they were recycled — and every
// fingerprint and every ground-truth statistic must be equal. A record
// handed out while something could still reach it, or one that remembers
// its previous use, would show here.
func TestOpStateReuseInvisible(t *testing.T) {
	bothWays := func(run func() any) (recycled, fresh any) {
		recycled = run()
		store.SetRecycling(false)
		defer store.SetRecycling(true)
		return recycled, run()
	}
	fingerprint := func(spec autonosql.ScenarioSpec) func() any {
		return func() any {
			sc, err := autonosql.NewScenario(spec)
			if err != nil {
				t.Fatalf("NewScenario: %v", err)
			}
			rep, err := sc.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return rep.Fingerprint()
		}
	}

	// A crash, a partition and a hint overflow in one spec: with RF 5 on 5
	// nodes every write hints the crashed node, and 30 s of 4 500 writes/s is
	// a third more than the 100 000 hints its backlog holds.
	faults := autonosql.DefaultScenarioSpec()
	faults.Seed = 31
	faults.Duration = 75 * time.Second
	faults.Controller.Mode = autonosql.ControllerNone
	faults.Cluster.InitialNodes = 5
	faults.Cluster.NodeOpsPerSec = 9000
	faults.Store.ReplicationFactor = 5
	faults.Workload.BaseOpsPerSec = 4700
	faults.Workload.ReadFraction = 0.05
	faults.Workload.Keys = autonosql.KeysUniform
	faults.Workload.Keyspace = 50_000
	faults.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(5*time.Second, 30*time.Second, 1),
		autonosql.PartitionFault(45*time.Second, 10*time.Second, 2),
	}}
	if recycled, fresh := bothWays(fingerprint(faults)); recycled != fresh {
		t.Errorf("fault scenario: report differs with recycling off\nrecycled:\n%s\nfresh:\n%s", recycled, fresh)
	}

	// The same faults at RF 6 on 6 nodes, reads at ALL: an operation that
	// fans out to all six replicas keeps its slots in the overflow slice,
	// which a recycled state keeps from whatever operation it served before
	// (a read that failed before fan-out, a write that hinted a crashed
	// replica and fanned out to five) and a fresh state allocates anew.
	wide := faults
	wide.Cluster.InitialNodes = 6
	wide.Store.ReplicationFactor = 6
	wide.Store.ReadConsistency = autonosql.ConsistencyAll
	if recycled, fresh := bothWays(fingerprint(wide)); recycled != fresh {
		t.Errorf("RF 6 fault scenario: report differs with recycling off\nrecycled:\n%s\nfresh:\n%s", recycled, fresh)
	}

	// Both tenant goldens: the recycled result is pinned by the golden tests
	// of the root package, so the fresh-state run is held to the same files
	// (which also proves these specs mirror the root package's).
	tenants := autonosql.DefaultScenarioSpec()
	tenants.Seed = 4711
	tenants.Duration = 90 * time.Second
	tenants.Cluster.InitialNodes = 3
	tenants.Cluster.NodeOpsPerSec = 2500
	tenants.Controller.Mode = autonosql.ControllerNone
	tenants.Tenants = []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "bronze", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2,
			Keyspace: 4000,
		}},
	}
	throttled := tenants
	throttled.Seed = 2026
	throttled.Duration = 4 * time.Minute
	throttled.Cluster.NodeOpsPerSec = 1200
	throttled.Controller.Mode = autonosql.ControllerSmart
	throttled.Controller.Predictive = false
	throttled.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	for golden, spec := range map[string]autonosql.ScenarioSpec{
		"scenario_twotenants_seed4711": tenants,
		"scenario_throttle_seed2026":   throttled,
	} {
		want, err := os.ReadFile("../../testdata/golden_" + golden + ".txt")
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		store.SetRecycling(false)
		got := fingerprint(spec)()
		store.SetRecycling(true)
		if got != string(want) {
			t.Errorf("%s: report with recycling off differs from the golden\n%s", golden, got)
		}
	}

	// The same faults against a bare store, where the hint counters are in
	// reach: the overflow has to really happen, and the whole ground truth —
	// counters and all three distributions — has to come out equal.
	script := func() any {
		engine := sim.NewEngine()
		rnd := sim.NewRandSource(5)
		cl := cluster.New(cluster.DefaultConfig(), engine, rnd)
		st, err := store.New(store.DefaultConfig(), engine, cl, rnd)
		if err != nil {
			t.Fatalf("store.New: %v", err)
		}
		nodes := cl.AvailableNodes()
		issued, fired := 0, 0
		burst := func(n int, op func(store.KeyID, func(store.Result))) {
			for i := 0; i < n; i++ {
				op(store.KeyID(issued%30_000), func(store.Result) { fired++ })
				if issued++; issued%32 == 0 {
					for fired < issued && engine.Step() {
					}
				}
			}
		}
		must := func(err error) {
			if err != nil {
				t.Fatalf("fault script: %v", err)
			}
		}
		burst(2_000, st.WriteID)
		must(cl.FailNode(nodes[2].ID()))
		burst(105_000, st.WriteID) // 5 000 past the crashed node's hint window
		cl.Network().Isolate([]cluster.NodeID{nodes[1].ID()})
		burst(3_000, st.WriteID)
		burst(3_000, st.ReadID)
		must(cl.RecoverNode(nodes[2].ID()))
		burst(3_000, st.ReadID)
		cl.Network().Heal([]cluster.NodeID{nodes[1].ID()})
		must(engine.Run(engine.Now() + 3*time.Minute)) // drain hints, repair
		burst(3_000, st.ReadID)
		must(engine.Run(engine.Now() + time.Second))
		stats := st.Stats()
		if fired != issued || stats.LostUpdates < 5_000 || stats.HintsDelivered == 0 || stats.StaleReads == 0 || stats.ReadRepairs == 0 {
			t.Fatalf("fault script did not exercise what it should: %d/%d callbacks, %+v", fired, issued, stats)
		}
		return stats
	}
	if recycled, fresh := bothWays(script); !reflect.DeepEqual(recycled, fresh) {
		t.Errorf("store script: ground truth differs with recycling off\nrecycled: %+v\nfresh:    %+v", recycled, fresh)
	}
}
