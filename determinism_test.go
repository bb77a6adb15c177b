package autonosql_test

// Golden-report determinism tests. The fingerprints under testdata/ were
// captured before the hot-path optimisation work (event pooling, scratch
// buffers, cached node lists — see PERFORMANCE.md) and must stay bit-for-bit
// identical: every float in a Report is fingerprinted via math.Float64bits,
// so even a 1-ULP drift in any statistic fails the test. Regenerate with
//
//	go test -run TestGolden -update-golden
//
// only when a change is *meant* to alter simulation results, and say why in
// the commit message.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autonosql"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden fingerprints")

// fingerprintReport delegates to the now-public Report.Fingerprint, which
// moved into the library so the adversarial hunt harness and the replay
// byte-identity check can score runs with exactly the digest the golden
// tests pin.
func fingerprintReport(r *autonosql.Report) string {
	return r.Fingerprint()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden_"+name+".txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("fingerprint line %d changed:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	t.Fatalf("report fingerprint diverged from %s: the simulation is no longer bit-for-bit reproducible", path)
}

// goldenSpec is the fixed-seed quick-scale scenario all golden cases build on.
func goldenSpec(seed int64, mode autonosql.ControllerMode) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = 60 * time.Second
	spec.Workload.BaseOpsPerSec = 2000
	spec.Controller.Mode = mode
	return spec
}

func runGoldenScenario(t *testing.T, spec autonosql.ScenarioSpec) *autonosql.Report {
	t.Helper()
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestGoldenScenarioNoController pins the plain store + workload hot path.
func TestGoldenScenarioNoController(t *testing.T) {
	rep := runGoldenScenario(t, goldenSpec(42, autonosql.ControllerNone))
	checkGolden(t, "scenario_none_seed42", fingerprintReport(rep))
}

// TestGoldenScenarioSmart pins the full MAPE-K path: monitoring, analysis,
// planning and reconfiguration actions all feed off the same event loop.
func TestGoldenScenarioSmart(t *testing.T) {
	spec := goldenSpec(1234, autonosql.ControllerSmart)
	spec.Duration = 2 * time.Minute
	rep := runGoldenScenario(t, spec)
	checkGolden(t, "scenario_smart_seed1234", fingerprintReport(rep))
}

// TestGoldenScenarioRerunIdentical runs the same fixed-seed scenario twice in
// one process and requires identical fingerprints, so state leaking between
// runs (pools, caches, scratch buffers) is caught even without golden files.
func TestGoldenScenarioRerunIdentical(t *testing.T) {
	a := fingerprintReport(runGoldenScenario(t, goldenSpec(7, autonosql.ControllerNone)))
	b := fingerprintReport(runGoldenScenario(t, goldenSpec(7, autonosql.ControllerNone)))
	if a != b {
		t.Fatalf("two runs of the same seed produced different fingerprints:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// goldenFaultSpec is the fixed-seed scenario the fault golden cases build
// on: four nodes so crashes and partitions leave a serving majority.
func goldenFaultSpec(seed int64) autonosql.ScenarioSpec {
	spec := goldenSpec(seed, autonosql.ControllerNone)
	spec.Duration = 90 * time.Second
	spec.Cluster.InitialNodes = 4
	return spec
}

// TestGoldenScenarioCrashRestart pins the crash+restart fault path: node
// failure mid-run, hint accumulation while it is down, hint replay and window
// resolution after the restart. The injector draws targets from its own
// stream, so the schedule — and therefore every statistic — is bit-for-bit
// reproducible.
func TestGoldenScenarioCrashRestart(t *testing.T) {
	spec := goldenFaultSpec(4242)
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(20*time.Second, 30*time.Second, 1),
	}}
	rep := runGoldenScenario(t, spec)
	if len(rep.Faults) != 1 {
		t.Fatalf("report has %d fault windows, want 1", len(rep.Faults))
	}
	checkGolden(t, "scenario_crash_seed4242", fingerprintReport(rep))
}

// TestGoldenScenarioPartitionHeal pins the partition+heal fault path:
// coordinator-relative replica liveness, hint queueing across the cut, and
// the convergence burst after the heal.
func TestGoldenScenarioPartitionHeal(t *testing.T) {
	spec := goldenFaultSpec(7777)
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.PartitionFault(20*time.Second, 40*time.Second, 2),
	}}
	rep := runGoldenScenario(t, spec)
	if len(rep.Faults) != 1 {
		t.Fatalf("report has %d fault windows, want 1", len(rep.Faults))
	}
	checkGolden(t, "scenario_partition_seed7777", fingerprintReport(rep))
}

// TestFaultSuiteConcurrentEqualsSequential pins that fault injection keeps
// the suite runner's core guarantee: with faults on the grid, a concurrent
// run produces bit-for-bit the same reports as a sequential one.
func TestFaultSuiteConcurrentEqualsSequential(t *testing.T) {
	base := goldenFaultSpec(11)
	base.Duration = 45 * time.Second
	suiteSpec := autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{
			Controllers: []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerSmart},
			Faults:      autonosql.DefaultFaultProfiles(base.Duration)[:3], // none, crash, partition
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
		var b strings.Builder
		for _, v := range rep.Variants {
			// fingerprintReport folds the fault windows in, so the
			// comparison covers the injected schedules too.
			fmt.Fprintf(&b, "== variant %s\n%s", v.Name, fingerprintReport(v.Report))
		}
		return b.String()
	}
	sequential := fingerprint(1)
	concurrent := fingerprint(4)
	if sequential != concurrent {
		t.Fatal("fault suite diverged between sequential and concurrent execution: fault injection is not deterministic under parallelism")
	}
}

// TestGoldenSuite pins a small two-variant suite, exercising the concurrent
// runner: the aggregated report must be identical whatever the parallelism.
func TestGoldenSuite(t *testing.T) {
	base := goldenSpec(7, autonosql.ControllerNone)
	base.Duration = 45 * time.Second
	suiteSpec := autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{
			Controllers: []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerReactive},
		},
	}
	for _, parallelism := range []int{1, 2} {
		suiteSpec.Parallelism = parallelism
		suite, err := autonosql.NewSuite(suiteSpec)
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		rep, err := suite.Run()
		if err != nil {
			t.Fatalf("suite.Run: %v", err)
		}
		var b strings.Builder
		for _, v := range rep.Variants {
			fmt.Fprintf(&b, "== variant %s\n%s", v.Name, fingerprintReport(v.Report))
		}
		checkGolden(t, "suite_controllers_seed7", b.String())
	}
}

// TestShardsEpochInert pins the deprecation contract of ScenarioSpec.Shards,
// ScenarioSpec.Epoch and Grid.Shards: still accepted, without effect. A
// golden spec with Shards and Epoch set renders the same report text, JSON
// (the echoed spec aside) and span export as the unset spec; a Shards grid
// axis still expands to shards=N variants with identical rows; negative
// values are still rejected.
func TestShardsEpochInert(t *testing.T) {
	type run struct{ text, json, spans string }
	observed := func(spec autonosql.ScenarioSpec) run {
		rep, spans, _ := observedRun(t, observedSpec(spec))
		rep.Spec.Shards, rep.Spec.Epoch = 0, 0
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return run{rep.String(), string(raw), string(spans)}
	}
	spec := goldenSpec(42, autonosql.ControllerNone)
	want := observed(spec)
	spec.Shards, spec.Epoch = 4, time.Millisecond
	if got := observed(spec); got != want {
		t.Error("Shards=4, Epoch=1ms changed the report text, JSON or span export")
	}

	base := goldenSpec(42, autonosql.ControllerNone)
	base.Duration = 20 * time.Second
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{Base: base, Grid: autonosql.Grid{Shards: []int{1, 4}}})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	rep, err := suite.Run()
	if err != nil {
		t.Fatalf("suite.Run: %v", err)
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(rows) != 3 || !strings.HasPrefix(rows[1], "shards=1,") || !strings.HasPrefix(rows[2], "shards=4,") {
		t.Fatalf("Shards axis expanded to CSV rows %q, want a header plus shards=1 and shards=4", rows)
	}
	if strings.TrimPrefix(rows[1], "shards=1") != strings.TrimPrefix(rows[2], "shards=4") {
		t.Errorf("shards=1 and shards=4 rows differ:\n%s\n%s", rows[1], rows[2])
	}

	for _, bad := range []func(*autonosql.ScenarioSpec){
		func(s *autonosql.ScenarioSpec) { s.Shards = -1 },
		func(s *autonosql.ScenarioSpec) { s.Epoch = -time.Second },
	} {
		spec := goldenSpec(1, autonosql.ControllerNone)
		bad(&spec)
		if _, err := autonosql.NewScenario(spec); err == nil {
			t.Errorf("NewScenario accepted Shards=%d Epoch=%v", spec.Shards, spec.Epoch)
		}
	}
}

// TestShardEpochInvariance pins that the deprecated Shards/Epoch pair is
// ignored on the golden path: a wide range of epochs at Shards=2 still
// reproduces each committed golden fingerprint byte for byte.
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
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+c.golden+".txt"))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			for _, epoch := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
				spec := c.spec()
				spec.Shards = 2
				spec.Epoch = epoch
				if got := fingerprintReport(runGoldenScenario(t, spec)); got != string(want) {
					t.Errorf("epoch=%v fingerprint diverged from golden_%s.txt", epoch, c.golden)
				}
			}
		})
	}
}

// TestSuiteShardsAxis pins the deprecated Grid.Shards axis: variants still
// carry the shards=N name component, both variants simulate the identical
// system, and the suite is the same run sequentially and concurrently.
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
		if fingerprintReport(rep.Variants[0].Report) != fingerprintReport(rep.Variants[1].Report) {
			t.Fatal("shards=1 and shards=4 variants produced different fingerprints")
		}
		return out
	}
	if fingerprint(1) != fingerprint(2) {
		t.Fatal("Shards-axis suite diverged between sequential and concurrent execution")
	}
}
