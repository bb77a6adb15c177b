package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// fakeTarget implements Target and records issued operations, completing
// them immediately with configurable results.
type fakeTarget struct {
	engine *sim.Engine
	reads  int
	writes int
	fail   bool
	stale  bool
}

func (f *fakeTarget) Read(key store.Key, cb func(store.Result)) {
	f.reads++
	res := store.Result{Kind: store.OpRead, Key: key, Latency: time.Millisecond, Stale: f.stale}
	if f.fail {
		res.Err = errors.New("injected")
	}
	if cb != nil {
		f.engine.After(time.Millisecond, func(time.Duration) { cb(res) })
	}
}

func (f *fakeTarget) Write(key store.Key, cb func(store.Result)) {
	f.writes++
	res := store.Result{Kind: store.OpWrite, Key: key, Latency: 2 * time.Millisecond}
	if f.fail {
		res.Err = errors.New("injected")
	}
	if cb != nil {
		f.engine.After(time.Millisecond, func(time.Duration) { cb(res) })
	}
}

func newGenerator(t *testing.T, cfg Config, target Target, engine *sim.Engine) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg, engine, target, sim.NewRandSource(1))
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{engine: engine}
	valid := Config{
		Profile: ConstantProfile{OpsPerSec: 10},
		Mix:     Mix{ReadFraction: 0.5},
		Keys:    NewUniformKeys(10, sim.NewRandSource(1).Stream("k")),
	}
	if _, err := NewGenerator(valid, nil, target, sim.NewRandSource(1)); err == nil {
		t.Fatal("nil engine accepted")
	}
	bad := valid
	bad.Profile = nil
	if _, err := NewGenerator(bad, engine, target, sim.NewRandSource(1)); err == nil {
		t.Fatal("nil profile accepted")
	}
	bad = valid
	bad.Keys = nil
	if _, err := NewGenerator(bad, engine, target, sim.NewRandSource(1)); err == nil {
		t.Fatal("nil keys accepted")
	}
	bad = valid
	bad.Mix.ReadFraction = 1.5
	if _, err := NewGenerator(bad, engine, target, sim.NewRandSource(1)); err == nil {
		t.Fatal("invalid mix accepted")
	}
}

func TestGeneratorIssuesApproximateRate(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{engine: engine}
	g := newGenerator(t, Config{
		Profile: ConstantProfile{OpsPerSec: 200},
		Mix:     Mix{ReadFraction: 0.5},
		Keys:    NewUniformKeys(100, sim.NewRandSource(2).Stream("k")),
		Until:   10 * time.Second,
	}, target, engine)
	g.Start()
	if err := engine.Run(12 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := target.reads + target.writes
	if total < 1500 || total > 2500 {
		t.Fatalf("issued %d ops at 200 ops/s over 10 s, want ~2000", total)
	}
	stats := g.Stats()
	if stats.ReadsIssued+stats.WritesIssued != uint64(total) {
		t.Fatal("generator stats disagree with target counts")
	}
	// 50/50 mix should be roughly balanced.
	ratio := float64(target.reads) / float64(total)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("read ratio = %.2f, want ~0.5", ratio)
	}
	if stats.LastIssueRate != 200 {
		t.Fatalf("LastIssueRate = %v, want 200", stats.LastIssueRate)
	}
}

func TestGeneratorStops(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{engine: engine}
	g := newGenerator(t, Config{
		Profile: ConstantProfile{OpsPerSec: 100},
		Mix:     Mix{ReadFraction: 1},
		Keys:    NewUniformKeys(10, sim.NewRandSource(3).Stream("k")),
	}, target, engine)
	g.Start()
	if err := engine.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	g.Stop()
	countAtStop := target.reads
	if err := engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A single already-scheduled arrival may still fire; no more than that.
	if target.reads > countAtStop+1 {
		t.Fatalf("generator kept issuing after Stop: %d -> %d", countAtStop, target.reads)
	}
}

func TestGeneratorZeroRateIdles(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{engine: engine}
	g := newGenerator(t, Config{
		Profile: StepProfile{Base: 0, Peak: 100, From: 2 * time.Second, To: 3 * time.Second},
		Mix:     Mix{ReadFraction: 1},
		Keys:    NewUniformKeys(10, sim.NewRandSource(4).Stream("k")),
		Until:   4 * time.Second,
	}, target, engine)
	g.Start()
	if err := engine.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if target.reads != 0 {
		t.Fatalf("ops issued during zero-rate period: %d", target.reads)
	}
	if err := engine.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if target.reads == 0 {
		t.Fatal("no ops issued during the peak period")
	}
}

func TestGeneratorErrorAndStaleAccounting(t *testing.T) {
	engine := sim.NewEngine()
	target := &fakeTarget{engine: engine, fail: true}
	g := newGenerator(t, Config{
		Profile: ConstantProfile{OpsPerSec: 100},
		Mix:     Mix{ReadFraction: 0.5},
		Keys:    NewUniformKeys(10, sim.NewRandSource(6).Stream("k")),
		Until:   2 * time.Second,
	}, target, engine)
	g.Start()
	if err := engine.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := g.Stats()
	if stats.ReadErrors == 0 || stats.WriteErrors == 0 {
		t.Fatalf("errors not counted: %+v", stats)
	}

	engine2 := sim.NewEngine()
	staleTarget := &fakeTarget{engine: engine2, stale: true}
	g2, err := NewGenerator(Config{
		Profile: ConstantProfile{OpsPerSec: 100},
		Mix:     Mix{ReadFraction: 1},
		Keys:    NewUniformKeys(10, sim.NewRandSource(7).Stream("k")),
		Until:   2 * time.Second,
	}, engine2, staleTarget, sim.NewRandSource(7))
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g2.Start()
	if err := engine2.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g2.Stats().StaleReads == 0 {
		t.Fatal("stale reads not counted")
	}
}

func TestKeyChoosers(t *testing.T) {
	rng := sim.NewRandSource(1).Stream("k")
	u := NewUniformKeys(100, rng)
	for i := 0; i < 1000; i++ {
		if !strings.HasPrefix(string(u.NextRead()), "key-") {
			t.Fatal("uniform key format wrong")
		}
		_ = u.NextWrite()
	}
	z := NewZipfianKeys(1000, 1.3, rng)
	counts := map[store.Key]int{}
	for i := 0; i < 5000; i++ {
		counts[z.NextRead()]++
		_ = z.NextWrite()
	}
	if counts["key-0"] < counts["key-500"] {
		t.Fatal("zipfian keys not skewed towards low indices")
	}
	l := NewLatestKeys(10, rng)
	first := l.NextWrite()
	second := l.NextWrite()
	if first == second {
		t.Fatal("latest writer should generate fresh keys")
	}
	for i := 0; i < 100; i++ {
		if l.NextRead() == "" {
			t.Fatal("latest reader returned empty key")
		}
	}
	zeroU := NewUniformKeys(0, rng)
	if zeroU.NextRead() != "key-0" {
		t.Fatal("degenerate uniform keyspace should clamp to one key")
	}
	zeroL := NewLatestKeys(0, rng)
	if zeroL.NextRead() == "" {
		t.Fatal("degenerate latest keyspace should still work")
	}
}

// TestSlicedChoosersStayInWindow pins the multi-tenant disjointness
// guarantee: a chooser confined with Slice never emits a key outside
// [base, base+size), whatever its distribution — including the append-only
// "latest" distribution, whose unbounded growth must wrap inside the window
// instead of running into the next tenant's slice.
func TestSlicedChoosersStayInWindow(t *testing.T) {
	src := sim.NewRandSource(2)
	const base, size = 1000, 200
	inWindow := func(k store.Key) bool {
		var idx int
		if _, err := fmt.Sscanf(string(k), "key-%d", &idx); err != nil {
			return false
		}
		return idx >= base && idx < base+size
	}
	choosers := map[string]KeyChooser{
		"uniform": NewUniformKeys(size, src.Stream("u")),
		"zipfian": NewZipfianKeys(size, 1.3, src.Stream("z")),
		"latest":  NewLatestKeys(size, src.Stream("l")),
	}
	for name, c := range choosers {
		if !Slice(c, base, size) {
			t.Fatalf("%s: Slice not applied", name)
		}
		// Far more writes than the window holds, so an unbounded appender
		// would escape.
		for i := 0; i < 5*size; i++ {
			if k := c.NextWrite(); !inWindow(k) {
				t.Fatalf("%s: write %d escaped the window: %s", name, i, k)
			}
			if k := c.NextRead(); !inWindow(k) {
				t.Fatalf("%s: read %d escaped the window: %s", name, i, k)
			}
		}
	}
	// Unsliced latest keeps its unbounded append-only keyspace.
	l := NewLatestKeys(10, src.Stream("l2"))
	var last store.Key
	for i := 0; i < 50; i++ {
		last = l.NextWrite()
	}
	if last != "key-59" {
		t.Fatalf("unsliced latest chooser changed behaviour: last write %s, want key-59", last)
	}
}

func TestGeneratorAgainstRealStore(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(11)
	cl := clusterForTest(engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	// YCSB workload A: update heavy, 50/50 over zipfian keys.
	g, err := NewGenerator(Config{
		Profile: ConstantProfile{OpsPerSec: 400},
		Mix:     Mix{ReadFraction: 0.5},
		Keys:    NewZipfianKeys(500, 1.3, src.Stream("keys-A")),
		Until:   5 * time.Second,
	}, engine, st, src)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g.Start()
	if err := engine.Run(7 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := g.Stats()
	if stats.ReadsIssued == 0 || stats.WritesIssued == 0 {
		t.Fatal("no traffic issued against real store")
	}
	if st.Stats().Writes == 0 {
		t.Fatal("store saw no writes")
	}
}
