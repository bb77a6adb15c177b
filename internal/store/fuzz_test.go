package store

import (
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/sim"
)

// FuzzParseConsistencyLevel pins that the parser never panics on arbitrary
// input and that accepted levels round-trip through String(): the symbolic
// names are the store's wire format in specs, CLIs and suite exports.
func FuzzParseConsistencyLevel(f *testing.F) {
	f.Add("ONE")
	f.Add("two")
	f.Add("QUORUM")
	f.Add("all")
	f.Add("")
	f.Add("QuOrUm")
	f.Add("EACH_QUORUM")
	f.Add("ONE ")

	f.Fuzz(func(t *testing.T, s string) {
		cl, err := ParseConsistencyLevel(s)
		if err != nil {
			if cl != 0 {
				t.Fatalf("ParseConsistencyLevel(%q) returned level %v alongside error %v", s, cl, err)
			}
			return
		}
		if cl < One || cl > All {
			t.Fatalf("ParseConsistencyLevel(%q) = %d outside the defined levels", s, int(cl))
		}
		back, err := ParseConsistencyLevel(cl.String())
		if err != nil || back != cl {
			t.Fatalf("level %v does not round-trip through String(): got (%v, %v)", cl, back, err)
		}
		// Required must stay within [1, rf] for any parsed level.
		for _, rf := range []int{1, 2, 3, 5, 9} {
			if n := cl.Required(rf); n < 1 || n > rf {
				t.Fatalf("%v.Required(%d) = %d outside [1, %d]", cl, rf, n, rf)
			}
		}
	})
}

// storeWorld is one engine + cluster + store under test for
// FuzzStoreOpScript: the real store in one world, the naive reference in a
// twin built from the same seed.
type storeWorld struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	read    func(Key, func(Result))
	write   func(Key, func(Result))
	close   func()
	results []Result
	fired   []int
}

// scriptKeys are the keys a script touches: canonical names on both sides of
// the old name table and of denseKeys, a non-canonical spelling, probe keys.
var scriptKeys = []Key{
	"key-0", "key-1", "key-2", "key-3", "key-5", "key-8", "key-16384", "key-199999",
	"key-1048576", "key-007", "probe-1", "probe-2",
}

// run plays one script. Two bytes make a step: an opcode and an argument.
func (w *storeWorld) run(t *testing.T, script []byte) {
	issue := func(op func(Key, func(Result)), key Key) {
		i := len(w.results)
		w.results = append(w.results, Result{})
		w.fired = append(w.fired, 0)
		op(key, func(r Result) { w.results[i], w.fired[i] = r, w.fired[i]+1 })
	}
	node := func(arg byte) cluster.NodeID {
		nodes := w.cluster.Nodes()
		return nodes[int(arg)%len(nodes)].ID()
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%12, script[i+1]
		switch {
		case op < 4:
			issue(w.write, scriptKeys[int(arg)%len(scriptKeys)])
		case op < 7:
			issue(w.read, scriptKeys[int(arg)%len(scriptKeys)])
		case op == 7: // crash or recover; refusals are part of the script
			if arg&1 == 0 {
				_ = w.cluster.FailNode(node(arg >> 1))
			} else {
				_ = w.cluster.RecoverNode(node(arg >> 1))
			}
		case op == 8: // isolate or heal
			if arg&1 == 0 {
				w.cluster.Network().Isolate([]cluster.NodeID{node(arg >> 1)})
			} else {
				w.cluster.Network().ClearPartition()
			}
		case op == 9: // join or leave; refusals (size limits, node not up) likewise
			if arg&1 == 0 {
				_, _ = w.cluster.AddNode()
			} else {
				_ = w.cluster.RemoveNode(node(arg >> 1))
			}
		default: // advance: up to 25 ms, or up to 64 s
			d := time.Duration(arg) * 100 * time.Microsecond
			if op == 11 {
				d = time.Duration(arg) * 250 * time.Millisecond
			}
			if err := w.engine.Run(w.engine.Now() + d); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
	}
	// Mend everything, let hints and repair converge, stop the tickers and
	// drain: every callback must have fired by then.
	w.cluster.Network().ClearPartition()
	for _, n := range w.cluster.Nodes() {
		_ = w.cluster.RecoverNode(n.ID())
	}
	if err := w.engine.Run(w.engine.Now() + 3*time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w.close()
	if err := w.engine.RunAll(50_000_000); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

// FuzzStoreOpScript turns script bytes into writes, reads, crashes,
// recoveries, partitions, heals, joins, leaves and clock advances, plays them
// against the real store and against refStore in twin worlds, and compares
// them operation for operation — acknowledgement or error, version returned,
// staleness verdict, completion time — and counter for counter. It also
// asserts that every callback fires exactly once by the time the engine has
// drained, which a recycled op state handed out too early would break.
//
// The first byte sets the world: its top four bits the write and read
// consistency levels, its low four the replication factor (1–6) and the
// initial cluster size (4–6). Low bits 0 give the store's default factor 3
// on 4 nodes. A factor of 6 puts an operation's slots past the op state's
// inline five and into its overflow slice, hints and read repair included.
func FuzzStoreOpScript(f *testing.F) {
	f.Add([]byte{0, 0, 10, 50, 4, 0})
	f.Add([]byte{0, 1, 7, 0, 1, 1, 2, 1, 11, 40, 7, 1, 11, 40, 5, 1})                                         // crash, hints, recover
	f.Add([]byte{0, 6, 8, 2, 1, 6, 2, 6, 4, 6, 10, 200, 8, 1, 11, 30, 5, 6})                                  // partition, heal, read repair
	f.Add([]byte{9, 0, 0, 7, 11, 200, 1, 7, 9, 3, 2, 7, 11, 100, 6, 7})                                       // join, leave
	f.Add([]byte{7, 0, 7, 2, 0, 9, 1, 10, 7, 4, 3, 11, 11, 8, 7, 1, 7, 3, 7, 5, 4, 9})                        // too few replicas
	f.Add([]byte{0, 8, 0, 9, 0, 10, 0, 11, 5, 8, 5, 9, 5, 10, 5, 11, 11, 255, 11, 255, 4})                    // interned keys, a sweep
	f.Add([]byte{4, 1, 4, 1, 7, 0, 0, 1, 5, 1, 11, 40, 7, 1, 4, 1, 10, 9, 5, 1})                              // RF 1: no second replica to hint or repair
	f.Add([]byte{63, 2, 7, 2, 0, 2, 0, 3, 11, 60, 7, 3, 8, 4, 0, 2, 10, 50, 8, 1, 4, 2, 10, 200, 5, 3, 6, 3}) // RF 6 on 6 nodes, ALL reads: overflow slots hinted, then read-repaired
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 8, 2, 9, 3, 11, 200})                                                // a replica is cut off and leaves with mutations in flight: lost, not hinted

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		cfg, nodes := DefaultConfig(), 4
		if len(script) > 0 { // the first byte picks the world, see above
			cfg.WriteConsistency = ConsistencyLevel(1 + script[0]>>6)
			cfg.ReadConsistency = ConsistencyLevel(1 + script[0]>>4&3)
			shape := int(script[0] & 15)
			cfg.ReplicationFactor = 1 + (shape+2)%6
			nodes += shape / 6
		}
		world := func(mk func(*sim.Engine, *cluster.Cluster, *sim.RandSource) (read, write func(Key, func(Result)), stop func())) *storeWorld {
			engine := sim.NewEngine()
			rnd := sim.NewRandSource(11)
			ccfg := cluster.DefaultConfig()
			ccfg.InitialNodes = nodes
			ccfg.MaxNodes = 6
			cl := cluster.New(ccfg, engine, rnd)
			w := &storeWorld{engine: engine, cluster: cl}
			w.read, w.write, w.close = mk(engine, cl, rnd)
			w.run(t, script)
			return w
		}
		var st *Store
		real := world(func(e *sim.Engine, cl *cluster.Cluster, rnd *sim.RandSource) (read, write func(Key, func(Result)), stop func()) {
			var err error
			if st, err = New(cfg, e, cl, rnd); err != nil {
				t.Fatalf("New: %v", err)
			}
			return st.Read, st.Write, st.Close
		})
		var ref *refStore
		naive := world(func(e *sim.Engine, cl *cluster.Cluster, rnd *sim.RandSource) (read, write func(Key, func(Result)), stop func()) {
			ref = newRefStore(cfg, e, cl, rnd)
			return ref.Read, ref.Write, ref.close
		})

		for i, got := range real.results {
			if real.fired[i] != 1 || naive.fired[i] != 1 {
				t.Fatalf("op %d: callback fired %d times (reference %d), want exactly once", i, real.fired[i], naive.fired[i])
			}
			got.ID = 0 // the reference knows names only
			if want := naive.results[i]; got != want {
				t.Fatalf("op %d: store answered %+v, reference %+v", i, got, want)
			}
		}
		got, want := st.Stats(), ref.stats
		want.Window.Count = uint64(len(ref.windows))
		for _, w := range ref.windows {
			want.Window.Mean += w.Seconds()
		}
		if len(ref.windows) > 0 {
			want.Window.Mean /= float64(len(ref.windows))
		}
		got.Window = metrics.Snapshot{Count: got.Window.Count, Mean: got.Window.Mean}
		got.ReadLatency, got.WriteLatency = metrics.Snapshot{}, metrics.Snapshot{}
		if got != want {
			t.Fatalf("ground truth differs:\nstore     %+v\nreference %+v", got, want)
		}
	})
}
