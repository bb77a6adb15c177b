package store

import (
	"strconv"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

// benchRig wires an engine, cluster and store without *testing.T so both
// benchmarks and allocation-regression tests can drive the raw op path.
type benchRig struct {
	engine *sim.Engine
	store  *Store
	keys   []Key
	ids    []KeyID
}

func newBenchRig(tb testing.TB, nodes int) *benchRig {
	return newBenchRigConfig(tb, nodes, DefaultConfig())
}

// newBenchRigConfig is newBenchRig over a store config of the caller's.
func newBenchRigConfig(tb testing.TB, nodes int, cfg Config) *benchRig {
	tb.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(1)
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = nodes
	cl := cluster.New(clusterCfg, engine, src)
	st, err := New(cfg, engine, cl, src)
	if err != nil {
		tb.Fatalf("store.New: %v", err)
	}
	keys := make([]Key, 512)
	ids := make([]KeyID, len(keys))
	for i := range keys {
		keys[i] = Key("key-" + strconv.Itoa(i))
		ids[i] = KeyID(i)
	}
	return &benchRig{engine: engine, store: st, keys: keys, ids: ids}
}

// settle steps the engine until the given number of operation callbacks have
// fired. The store's background tickers keep the queue non-empty forever, so
// draining completely is not an option; stepping to completion of the issued
// operations is what a scenario does implicitly.
func (r *benchRig) settle(tb testing.TB, fired *int, want int) {
	tb.Helper()
	for *fired < want {
		if !r.engine.Step() {
			tb.Fatalf("engine drained with %d/%d operations outstanding", *fired, want)
		}
	}
}

// BenchmarkWritePath measures one complete write: coordinator selection, ring
// lookup, replica fan-out, acks, client acknowledgement and window tracking.
func BenchmarkWritePath(b *testing.B) {
	rig := newBenchRig(b, 3)
	fired := 0
	cb := func(Result) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.store.Write(rig.keys[i%len(rig.keys)], cb)
		rig.settle(b, &fired, i+1)
	}
}

// BenchmarkReadPath measures one complete read against a pre-populated
// keyspace: coordinator selection, ring lookup, replica reads and the merged
// client response.
func BenchmarkReadPath(b *testing.B) {
	rig := newBenchRig(b, 3)
	fired := 0
	cb := func(Result) { fired++ }
	for _, k := range rig.keys {
		rig.store.Write(k, cb)
	}
	rig.settle(b, &fired, len(rig.keys))
	fired = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.store.Read(rig.keys[i%len(rig.keys)], cb)
		rig.settle(b, &fired, i+1)
	}
}

// BenchmarkMixedLoad measures a batch of interleaved reads and writes settled
// together, which keeps the node queues and the event heap realistically deep.
func BenchmarkMixedLoad(b *testing.B) {
	rig := newBenchRig(b, 5)
	fired := 0
	cb := func(Result) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			k := rig.keys[(i*64+j)%len(rig.keys)]
			if j%2 == 0 {
				rig.store.Write(k, cb)
			} else {
				rig.store.Read(k, cb)
			}
		}
		rig.settle(b, &fired, (i+1)*64)
	}
}

// BenchmarkRingReplicasFor measures the ring lookup on its own.
func BenchmarkRingReplicasFor(b *testing.B) {
	ring := NewRing(0)
	for id := 1; id <= 8; id++ {
		ring.Add(cluster.NodeID(id))
	}
	keys := make([]Key, 512)
	for i := range keys {
		keys[i] = Key("key-" + strconv.Itoa(i))
	}
	var buf []cluster.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ring.AppendReplicasFor(buf[:0], keys[i%len(keys)], 3)
	}
	_ = buf
}

// sink prevents the compiler from optimising benchmark bodies away.
var sinkDuration time.Duration

// BenchmarkDelayUntil pins the trivial helpers so regressions in inlining
// show up.
func BenchmarkDelayUntil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkDuration = delayUntil(time.Duration(i), time.Duration(i+1))
	}
}
