package autonosql_test

// Golden-report determinism tests. The fingerprints under testdata/ were
// captured before the hot-path optimisation work (event pooling, scratch
// buffers, cached node lists — PERFORMANCE.md describes the hot path as it
// is now) and must stay bit-for-bit
// identical: every float in a Report is fingerprinted via math.Float64bits,
// so even a 1-ULP drift in any statistic fails the test. Regenerate with
//
//	go test -run TestGolden -update-golden
//
// only when a change is *meant* to alter simulation results, and say why in
// the commit message.

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// TestShardsEpochInert pins the deprecation contract of ScenarioSpec.Shards:
// still accepted, without effect. A golden spec with Shards set renders the
// same report text, JSON (the echoed spec aside) and span export as the unset
// spec, and a negative value is still rejected.
func TestShardsEpochInert(t *testing.T) {
	type run struct{ text, json, spans string }
	observed := func(spec autonosql.ScenarioSpec) run {
		rep, spans, _ := observedRun(t, observedSpec(spec))
		rep.Spec.Shards = 0
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return run{rep.String(), string(raw), string(spans)}
	}
	spec := goldenSpec(42, autonosql.ControllerNone)
	want := observed(spec)
	spec.Shards = 4
	if got := observed(spec); got != want {
		t.Error("Shards=4 changed the report text, JSON or span export")
	}

	spec = goldenSpec(1, autonosql.ControllerNone)
	spec.Shards = -1
	if _, err := autonosql.NewScenario(spec); err == nil {
		t.Error("NewScenario accepted Shards=-1")
	}
}

// TestShardEpochInvariance pins that the deprecated Shards field is ignored
// on the golden path: any shard count still reproduces each committed golden
// fingerprint byte for byte.
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
			for _, shards := range []int{2, 4} {
				spec := c.spec()
				spec.Shards = shards
				if got := fingerprintReport(runGoldenScenario(t, spec)); got != string(want) {
					t.Errorf("shards=%d fingerprint diverged from golden_%s.txt", shards, c.golden)
				}
			}
		})
	}
}

// TestNoFusedFloatOps holds determinism rule 6. The Go spec lets a compiler
// fuse x*y + z into one multiply-add with a single rounding unless an
// explicit conversion rounds the product first. amd64 never fuses, arm64
// does, so a golden that holds here could fail there. The test
// cross-compiles the commands for arm64 and fails on any fused multiply-add
// in a function of this module.
func TestNoFusedFloatOps(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the commands")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	build := exec.Command(goBin, "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("cross-compiling for arm64: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil || len(bins) == 0 {
		t.Fatalf("no binaries built: %v", err)
	}
	fused := regexp.MustCompile(`\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	sites := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command(goBin, "tool", "objdump", "-s", "^autonosql", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("objdump %s: %v", bin.Name(), err)
		}
		fn := ""
		for _, line := range strings.Split(string(out), "\n") {
			if name, ok := strings.CutPrefix(line, "TEXT "); ok {
				fn, _, _ = strings.Cut(name, "(SB)")
			} else if fused.MatchString(line) {
				pos, _, _ := strings.Cut(strings.TrimSpace(line), "\t")
				sites[fn+" at "+pos] = true
			}
		}
	}
	for _, site := range slices.Sorted(maps.Keys(sites)) {
		t.Errorf("fused multiply-add in %s: round the product with an explicit float64(...)", site)
	}
}
