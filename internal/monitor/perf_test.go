package monitor

import (
	"fmt"
	"testing"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/tenant"
	"autonosql/internal/workload"
)

// TestClientPathAllocationFree pins the whole client path at zero
// allocations per operation in steady state: Generator -> Monitor -> Store,
// and Generator -> tenant.Runtime -> Monitor -> Store, each on the default
// keyspace and on one far above the 16 384 keys whose names used to come
// from a precomputed table. One run is half a simulated second — a thousand
// operations — and AllocsPerRun reports whole objects per run, so the bound
// is less than one allocation per thousand operations: the amortised growth
// of a reservoir passes, a per-operation closure, name or op state does not.
func TestClientPathAllocationFree(t *testing.T) {
	for _, keyspace := range []int{10_000, 200_000} {
		for _, viaRuntime := range []bool{false, true} {
			t.Run(fmt.Sprintf("keys=%d/runtime=%v", keyspace, viaRuntime), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.UseActive = false // a probe writes a key of its own each time, by design
				rig := newRig(t, cfg, store.DefaultConfig(), 1)
				var target workload.Target = rig.monitor
				if viaRuntime {
					rig.store.RegisterTenants(1)
					rt, err := tenant.NewRuntime(1, "gold", tenant.Gold, rig.monitor.Tagged(1))
					if err != nil {
						t.Fatalf("NewRuntime: %v", err)
					}
					if err := rt.EnableAdmission(rig.engine.Now, nil); err != nil {
						t.Fatalf("EnableAdmission: %v", err)
					}
					target = rt
				}
				src := sim.NewRandSource(99)
				gen, err := workload.NewGenerator(workload.Config{
					Profile: workload.ConstantProfile{OpsPerSec: 2000},
					Mix:     workload.Mix{ReadFraction: 0.5},
					Keys:    workload.NewUniformKeys(keyspace, src.Stream("keys")),
				}, rig.engine, target, src)
				if err != nil {
					t.Fatalf("NewGenerator: %v", err)
				}
				gen.Start()
				step := func() {
					if err := rig.engine.Run(rig.engine.Now() + 500*time.Millisecond); err != nil {
						t.Fatalf("Run: %v", err)
					}
				}
				// Warm up: fill the event pool and the free lists, reach the
				// top of the keyspace, and fill the 65 536-sample reservoirs
				// (500 reads and 500 writes per step).
				for i := 0; i < 140; i++ {
					step()
				}
				if avg := testing.AllocsPerRun(20, step); avg != 0 {
					t.Errorf("client path allocates %.0f objects per 1000 ops in steady state, want 0", avg)
				}
				if st := gen.Stats(); st.ReadErrors+st.WriteErrors != 0 || st.ReadsIssued == 0 || st.WritesIssued == 0 {
					t.Fatalf("generator saw errors or no traffic: %+v", st)
				}
			})
		}
	}
}
