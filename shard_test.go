package autonosql_test

// Shard-equivalence tests: the whole value of the sharded engine rests on
// Shards being a pure performance knob. Every committed golden — plain,
// MAPE-controlled, crash+restart, partition+heal, two-tenant, throttled, and
// trace replay — must produce a bit-for-bit identical Report.Fingerprint()
// for shards ∈ {1, 2, 4}, and the fingerprint must be invariant under the
// lockstep epoch length. The golden .txt files double as the shards=1
// byte-identity oracle: shards <= 1 takes the classic single-heap path, so
// comparing sharded runs against the files proves both halves at once.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// shardGoldenCases enumerates every committed golden scenario as (spec
// builder, golden file) pairs. Builders return fresh specs so each run can
// set its own Shards/Epoch.
func shardGoldenCases(t *testing.T) []struct {
	name   string
	golden string
	spec   func() autonosql.ScenarioSpec
} {
	t.Helper()
	replayTrace := readGoldenTrace(t)
	return []struct {
		name   string
		golden string
		spec   func() autonosql.ScenarioSpec
	}{
		{"none", "scenario_none_seed42", func() autonosql.ScenarioSpec {
			return goldenSpec(42, autonosql.ControllerNone)
		}},
		{"smart", "scenario_smart_seed1234", func() autonosql.ScenarioSpec {
			spec := goldenSpec(1234, autonosql.ControllerSmart)
			spec.Duration = 2 * time.Minute
			return spec
		}},
		{"crash", "scenario_crash_seed4242", func() autonosql.ScenarioSpec {
			spec := goldenFaultSpec(4242)
			spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
				autonosql.CrashFault(20*time.Second, 30*time.Second, 1),
			}}
			return spec
		}},
		{"partition", "scenario_partition_seed7777", func() autonosql.ScenarioSpec {
			spec := goldenFaultSpec(7777)
			spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
				autonosql.PartitionFault(20*time.Second, 40*time.Second, 2),
			}}
			return spec
		}},
		{"twotenants", "scenario_twotenants_seed4711", func() autonosql.ScenarioSpec {
			return twoTenantSpec(4711, autonosql.ControllerNone)
		}},
		{"throttle", "scenario_throttle_seed2026", func() autonosql.ScenarioSpec {
			return throttledSpec(2026)
		}},
		{"replay", "scenario_twotenants_seed4711", func() autonosql.ScenarioSpec {
			spec := twoTenantSpec(4711, autonosql.ControllerNone)
			spec.Replay = replayTrace
			return spec
		}},
	}
}

// readGoldenTrace loads the committed two-tenant arrival trace.
func readGoldenTrace(t *testing.T) *autonosql.WorkloadTrace {
	t.Helper()
	trace, err := autonosql.ReadWorkloadTraceFile(filepath.Join("testdata", "golden_trace_twotenants_seed4711.jsonl"))
	if err != nil {
		t.Fatalf("reading golden trace: %v", err)
	}
	return trace
}

// readGoldenFile loads a committed golden fingerprint.
func readGoldenFile(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	return string(want)
}

// TestShardEquivalence is the tentpole guarantee: for every committed golden
// scenario, the report fingerprint at shards ∈ {1, 2, 4} is byte-identical
// to the golden file produced by the classic single-heap engine.
func TestShardEquivalence(t *testing.T) {
	for _, c := range shardGoldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want := readGoldenFile(t, c.golden)
			for _, shards := range []int{1, 2, 4} {
				spec := c.spec()
				spec.Shards = shards
				got := fingerprintReport(runGoldenScenario(t, spec))
				if got != want {
					t.Errorf("shards=%d fingerprint diverged from golden_%s.txt", shards, c.golden)
				}
			}
		})
	}
}

// TestShardEquivalenceWriteQuorumFaults holds the benchmark's store-heavy
// workload shape (bench write_quorum_faults, at half length) to the same
// guarantee: 90 % QUORUM writes over 200 000 uniform keys on five nodes, a
// crash and a two-node partition — key ids minted on driver lanes, hints,
// anti-entropy and per-key slices far past any committed golden's keyspace —
// report the same at shards 2 and 4 as on the single heap.
func TestShardEquivalenceWriteQuorumFaults(t *testing.T) {
	specFor := func(shards int) autonosql.ScenarioSpec {
		spec := autonosql.DefaultScenarioSpec()
		spec.Seed = 5
		spec.Duration = time.Minute
		spec.Shards = shards
		spec.Cluster.InitialNodes = 5
		spec.Store.ReadConsistency = autonosql.ConsistencyQuorum
		spec.Store.WriteConsistency = autonosql.ConsistencyQuorum
		spec.Workload.BaseOpsPerSec = 2000
		spec.Workload.ReadFraction = 0.1
		spec.Workload.Keys = autonosql.KeysUniform
		spec.Workload.Keyspace = 200000
		spec.Controller.Mode = autonosql.ControllerNone
		spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
			autonosql.CrashFault(10*time.Second, 10*time.Second, 1),
			autonosql.PartitionFault(30*time.Second, 10*time.Second, 2),
		}}
		return spec
	}
	want := fingerprintReport(runGoldenScenario(t, specFor(0)))
	for _, shards := range []int{2, 4} {
		if got := fingerprintReport(runGoldenScenario(t, specFor(shards))); got != want {
			t.Errorf("shards=%d fingerprint diverged from the single-heap run", shards)
		}
	}
}

// TestShardEpochInvariance pins that the lockstep epoch length is pure
// buffering, not semantics: wildly different windows produce byte-identical
// fingerprints, so the barrier protocol — never timing luck — determines
// event order.
func TestShardEpochInvariance(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		spec   func() autonosql.ScenarioSpec
	}{
		{"none", "scenario_none_seed42", func() autonosql.ScenarioSpec {
			return goldenSpec(42, autonosql.ControllerNone)
		}},
		{"twotenants", "scenario_twotenants_seed4711", func() autonosql.ScenarioSpec {
			return twoTenantSpec(4711, autonosql.ControllerNone)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := readGoldenFile(t, c.golden)
			for _, epoch := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
				spec := c.spec()
				spec.Shards = 2
				spec.Epoch = epoch
				got := fingerprintReport(runGoldenScenario(t, spec))
				if got != want {
					t.Errorf("epoch=%v fingerprint diverged from golden_%s.txt", epoch, c.golden)
				}
			}
		})
	}
}

// TestShardRecordTrace pins that recording is shard-transparent: a sharded
// run records byte-for-byte the trace the single-heap run recorded (the
// committed golden trace), because the recorder sits on the home side of the
// lane bridge and stamps arrivals at their true delivery times.
func TestShardRecordTrace(t *testing.T) {
	spec := twoTenantSpec(4711, autonosql.ControllerNone)
	spec.Shards = 4
	_, trace := recordRun(t, spec)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace_twotenants_seed4711.jsonl"))
	if err != nil {
		t.Fatalf("reading golden trace: %v", err)
	}
	if !bytes.Equal(encodeTrace(t, trace), want) {
		t.Fatal("sharded run recorded a different trace than the committed golden")
	}
}

// scenarioRunMallocs builds the scenario for spec and returns the number of
// heap allocations its Run performed (construction excluded).
func scenarioRunMallocs(t *testing.T, spec autonosql.ScenarioSpec) uint64 {
	t.Helper()
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := scenario.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestShardScenarioAllocBound pins the steady-state allocation behaviour at
// scenario level, plain and sharded, as an absolute per-operation bound: op
// state, completion records, tick records and cross-lane boxes are all
// recycled and drained messages reuse pooled events, so the second 30 s of a
// run (60 000 operations at this spec's rate) may allocate only what the
// sampling ticks, series and growing reservoirs do — a small fraction of an
// object per operation, where one per operation was the floor before op state
// was recycled.
func TestShardScenarioAllocBound(t *testing.T) {
	const ops, maxAllocsPerOp = 60_000, 0.05
	for _, shards := range []int{0, 4} {
		specFor := func(d time.Duration) autonosql.ScenarioSpec {
			spec := goldenSpec(42, autonosql.ControllerNone)
			spec.Duration = d
			spec.Shards = shards
			return spec
		}
		growth := scenarioRunMallocs(t, specFor(time.Minute)) - scenarioRunMallocs(t, specFor(30*time.Second))
		t.Logf("shards=%d: +30s simulated costs %d allocations", shards, growth)
		if float64(growth) > maxAllocsPerOp*ops {
			t.Errorf("shards=%d: steady state allocates %.3f objects per op, want <= %v",
				shards, float64(growth)/ops, maxAllocsPerOp)
		}
	}
}

// TestShardSpecValidation pins the spec guard rails.
func TestShardSpecValidation(t *testing.T) {
	spec := goldenSpec(1, autonosql.ControllerNone)
	spec.Shards = -1
	if _, err := autonosql.NewScenario(spec); err == nil {
		t.Fatal("NewScenario accepted negative Shards")
	}
	spec = goldenSpec(1, autonosql.ControllerNone)
	spec.Epoch = -time.Second
	if _, err := autonosql.NewScenario(spec); err == nil {
		t.Fatal("NewScenario accepted negative Epoch")
	}
}

// TestSuiteShardsAxis pins the Shards grid axis: variants carry the
// shards=N name component and the expansion is bit-for-bit deterministic
// whatever the suite parallelism, even with sharded scenarios running
// inside concurrent workers.
func TestSuiteShardsAxis(t *testing.T) {
	base := twoTenantSpec(4711, autonosql.ControllerNone)
	base.Duration = 45 * time.Second
	suiteSpec := autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{
			Shards: []int{1, 4},
		},
	}
	fingerprint := func(parallelism int) string {
		suiteSpec.Parallelism = parallelism
		suite, err := autonosql.NewSuite(suiteSpec)
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		rep, err := suite.Run()
		if err != nil {
			t.Fatalf("suite.Run: %v", err)
		}
		if len(rep.Variants) != 2 {
			t.Fatalf("suite ran %d variants, want 2", len(rep.Variants))
		}
		if rep.Parallelism != parallelism {
			t.Fatalf("SuiteReport.Parallelism = %d, want %d", rep.Parallelism, parallelism)
		}
		out := ""
		for i, v := range rep.Variants {
			out += "== variant " + v.Name + "\n" + fingerprintReport(v.Report)
			wantComponent := []string{"shards=1", "shards=4"}[i]
			if !strings.Contains(v.Name, wantComponent) {
				t.Fatalf("variant %q does not carry the %s component", v.Name, wantComponent)
			}
		}
		// Shards is a pure performance knob: both variants must simulate the
		// identical system.
		if fingerprintReport(rep.Variants[0].Report) != fingerprintReport(rep.Variants[1].Report) {
			t.Fatal("shards=1 and shards=4 variants produced different fingerprints")
		}
		return out
	}
	sequential := fingerprint(1)
	concurrent := fingerprint(2)
	if sequential != concurrent {
		t.Fatal("Shards-axis suite diverged between sequential and concurrent execution")
	}
}

// TestShardNodeOwnershipStability pins the home-sharding membership story at
// scenario level. Every entropy stream (one per node, one for the network) is
// owned by the lane its ring token maps to — a pure function of node
// identity — so: a node the controller provisions mid-run gets its own feed
// the moment it is created (scale-out), a crashed-and-restarted node keeps
// its feed (the ring position never moved), and the deterministic feed
// counters are identical whatever the worker count.
func TestShardNodeOwnershipStability(t *testing.T) {
	profiled := func(spec autonosql.ScenarioSpec, shards int) *autonosql.ProfileReport {
		t.Helper()
		spec.Shards = shards
		spec.Observe = &autonosql.ObserveSpec{Profile: true}
		rep := runGoldenScenario(t, spec)
		if rep.Profile == nil || rep.Profile.Feeds == nil {
			t.Fatalf("shards=%d run carries no feed profile", shards)
		}
		return rep.Profile
	}

	// Scale-out/in: a node provisioned mid-run must be bound to an owner lane
	// by the same factory as the initial set, a drained one retires with its
	// ring position, and the whole churn sequence must stay byte-identical to
	// the single-heap run.
	churned := func(shards int) (*autonosql.ProfileReport, string) {
		t.Helper()
		spec := goldenSpec(97, autonosql.ControllerNone)
		spec.Duration = 2 * time.Minute
		spec.Shards = shards
		spec.Observe = &autonosql.ObserveSpec{Profile: true}
		scenario, err := autonosql.NewScenario(spec)
		if err != nil {
			t.Fatalf("NewScenario: %v", err)
		}
		scenario.At(20*time.Second, func(h *autonosql.Handle) {
			if err := h.AddNode(); err != nil {
				t.Errorf("AddNode: %v", err)
			}
		})
		scenario.At(100*time.Second, func(h *autonosql.Handle) {
			if err := h.RemoveNode(); err != nil {
				t.Errorf("RemoveNode: %v", err)
			}
		})
		rep, err := scenario.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.Profile, fingerprintReport(rep)
	}
	const churnedStreams = 3 + 1 + 1 // initial nodes + network + the added node
	_, fp1 := churned(1)
	p2, fp2 := churned(2)
	if fp2 != fp1 {
		t.Fatal("membership-churn fingerprint diverged from the single-heap run")
	}
	if p2 == nil || p2.Feeds == nil {
		t.Fatal("churned run carries no feed profile")
	}
	if p2.Feeds.Feeds != churnedStreams {
		t.Fatalf("scale-out/in run created %d feeds, want exactly %d: the provisioned node must get a feed, the drained one keeps its binding",
			p2.Feeds.Feeds, churnedStreams)
	}
	if p2.Feeds.Refills == 0 {
		t.Fatal("no refills were produced on owner lanes")
	}
	p4, fp4 := churned(4)
	if *p2.Feeds != *p4.Feeds {
		t.Fatalf("deterministic feed counters diverged across worker counts:\nshards=2: %+v\nshards=4: %+v",
			*p2.Feeds, *p4.Feeds)
	}
	if fp2 != fp4 {
		t.Fatal("membership-churn fingerprints diverged across worker counts")
	}

	// Crash/restart: the node keeps its ring position and therefore its feed;
	// the stream count stays at initial nodes + network.
	crash := goldenFaultSpec(4242)
	crash.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(20*time.Second, 30*time.Second, 1),
	}}
	if pc := profiled(crash, 2); pc.Feeds.Feeds != 4+1 {
		t.Fatalf("crash/restart run created %d feeds, want exactly %d: ownership must not move",
			pc.Feeds.Feeds, 4+1)
	}
}
