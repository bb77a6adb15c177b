package monitor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"autonosql/internal/cluster"
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
// is less than one allocation per thousand operations: amortised growth
// passes, a per-operation closure, name or op state does not.
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
				// Warm up: fill the event pool and the free lists and reach
				// the top of the keyspace (500 reads and 500 writes per
				// step).
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

// TestFreeListSlabRefill pins that the completion records of the monitor's
// and the tenant runtime's wrappers refill from slabs, as the store's op
// state and events do: 10 000 writes in flight through one or two wrapping
// layers allocate, per layer, the handler each record binds once and one
// object per slab of records — on top of the store's slabs of op state,
// window trackers and events and a constant — not one object per record as
// well.
func TestFreeListSlabRefill(t *testing.T) {
	const writes, slab = 10_000, 64 // slab: the fewest elements a sim.Slab block holds
	for _, viaRuntime := range []bool{false, true} {
		t.Run(fmt.Sprintf("runtime=%v", viaRuntime), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.UseActive = false
			rig := newRig(t, cfg, store.DefaultConfig(), 1)
			var target interface {
				WriteID(store.KeyID, func(store.Result))
			} = rig.monitor
			layers := 1
			if viaRuntime {
				rig.store.RegisterTenants(1)
				rt, err := tenant.NewRuntime(1, "gold", tenant.Gold, rig.monitor.Tagged(1))
				if err != nil {
					t.Fatalf("NewRuntime: %v", err)
				}
				target, layers = rt, 2
			}
			cb := func(store.Result) {}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < writes; i++ {
				target.WriteID(store.KeyID(i%512), cb)
			}
			runtime.ReadMemStats(&after)
			limit := uint64(layers*writes + (2+layers)*writes/slab + 64)
			if got := after.Mallocs - before.Mallocs; got > limit {
				t.Errorf("%d writes in flight through %d layers allocated %d objects, want at most %d", writes, layers, got, limit)
			}
			if pending := rig.engine.Pending(); pending < writes {
				t.Fatalf("%d events pending: the writes are not all in flight", pending)
			}
		})
	}
}

// TestProberAllocatesOnlyKeyNames pins the active prober's steady state: a
// probe's record, its write, poll and retry handlers are recycled, so what a
// probe allocates is its new key's name (interned by the store) and its share
// of the intern table's growth — not a formatted name, a closure per poll
// and an event per retry.
func TestProberAllocatesOnlyKeyNames(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(6)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	p, err := NewProber(defaultProberConfig(100), engine, st, func(float64, int) {})
	if err != nil {
		t.Fatalf("NewProber: %v", err)
	}
	second := func() {
		if err := engine.Run(engine.Now() + time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		second()
	}
	if avg := testing.AllocsPerRun(10, second); avg > 110 {
		t.Errorf("100 probes allocate %.0f objects, want at most 110", avg)
	}
	if p.Completed() == 0 || p.Failed()+p.TimedOut() != 0 {
		t.Fatalf("probes completed %d, failed %d, timed out %d", p.Completed(), p.Failed(), p.TimedOut())
	}
}
