package autonosql_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// faultSpec returns a quick-running base spec for fault tests.
func faultSpec(seed int64) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = 90 * time.Second
	spec.SampleInterval = 5 * time.Second
	spec.Cluster.InitialNodes = 4
	spec.Workload.BaseOpsPerSec = 1500
	spec.Controller.Mode = autonosql.ControllerNone
	return spec
}

func TestFaultSpecValidation(t *testing.T) {
	cases := []struct {
		name  string
		fault autonosql.FaultSpec
		ok    bool
	}{
		{"crash", autonosql.CrashFault(10*time.Second, 20*time.Second, 1), true},
		{"partition", autonosql.PartitionFault(10*time.Second, 20*time.Second, 2), true},
		{"slow", autonosql.SlowNodeFault(10*time.Second, 20*time.Second, 1, 0.5), true},
		{"storm", autonosql.LatencyStormFault(10*time.Second, 20*time.Second, 0.8), true},
		{"permanent crash", autonosql.CrashFault(10*time.Second, 0, 1), true},
		{"unknown kind", autonosql.FaultSpec{Kind: "meteor", At: time.Second}, false},
		{"negative at", autonosql.CrashFault(-time.Second, 0, 1), false},
		{"negative duration", autonosql.FaultSpec{Kind: autonosql.FaultNodeCrash, At: time.Second, Duration: -time.Second}, false},
		{"negative nodes", autonosql.FaultSpec{Kind: autonosql.FaultNodeCrash, At: time.Second, Nodes: -1}, false},
		{"severity above one", autonosql.SlowNodeFault(time.Second, time.Second, 1, 1.5), false},
		{"negative severity", autonosql.LatencyStormFault(time.Second, time.Second, -0.1), false},
		{"NaN severity", autonosql.LatencyStormFault(time.Second, time.Second, math.NaN()), false},
		{"Inf severity", autonosql.SlowNodeFault(time.Second, time.Second, 1, math.Inf(1)), false},
	}
	for _, tc := range cases {
		spec := faultSpec(1)
		spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{tc.fault}}
		err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() accepted an invalid fault", tc.name)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := autonosql.ParseFaultPlan(
		"crash:30s:60s, partition:1m:45s:n=2, slow:20s:40s:n=2:sev=0.5, storm:10s:30s:sev=0.8")
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	want := []autonosql.FaultSpec{
		autonosql.CrashFault(30*time.Second, 60*time.Second, 0),
		autonosql.PartitionFault(time.Minute, 45*time.Second, 2),
		autonosql.SlowNodeFault(20*time.Second, 40*time.Second, 2, 0.5),
		autonosql.LatencyStormFault(10*time.Second, 30*time.Second, 0.8),
	}
	if len(plan.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(plan.Faults), len(want))
	}
	for i, got := range plan.Faults {
		if got != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got, want[i])
		}
	}

	if p, err := autonosql.ParseFaultPlan(""); err != nil || !p.Empty() {
		t.Errorf("empty string parsed to (%+v, %v), want empty plan", p, err)
	}
	for _, bad := range []string{
		"crash", "crash:30s", "meteor:1s:1s", "crash:x:1s", "crash:1s:y",
		"crash:1s:1s:n=z", "crash:1s:1s:sev=z", "crash:1s:1s:bogus=1",
		"slow:1s:1s:sev=2", "storm:1s:1s:sev=NaN", "storm:1s:1s:sev=+Inf",
		"partition:1s:1s:n=2:n=3", // an option may appear once
	} {
		if _, err := autonosql.ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted invalid input", bad)
		}
	}
}

// TestParsedPlansAlwaysValidate pins the parser's contract: anything it
// accepts passes spec validation unchanged.
func TestParsedPlansAlwaysValidate(t *testing.T) {
	for _, s := range []string{
		"crash:0s:0s", "partition:5m:1h:n=3", "storm:1s:1s:sev=1", "slow:1s:1s:n=0:sev=0",
	} {
		plan, err := autonosql.ParseFaultPlan(s)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", s, err)
		}
		spec := faultSpec(1)
		spec.Faults = plan
		if err := spec.Validate(); err != nil {
			t.Errorf("plan %q parsed but failed validation: %v", s, err)
		}
	}
}

func TestDefaultFaultProfiles(t *testing.T) {
	profiles := autonosql.DefaultFaultProfiles(4 * time.Minute)
	names := make([]string, 0, len(profiles))
	for _, p := range profiles {
		names = append(names, p.Name)
		spec := faultSpec(1)
		spec.Faults = p.Plan
		if err := spec.Validate(); err != nil {
			t.Errorf("profile %q does not validate: %v", p.Name, err)
		}
	}
	if got := strings.Join(names, ","); got != "none,crash,partition,slow,storm" {
		t.Errorf("profile names = %s", got)
	}
	if p, ok := autonosql.LookupFaultProfile("crash", 4*time.Minute); !ok || p.Plan.Empty() {
		t.Errorf("LookupFaultProfile(crash) = (%+v, %v)", p, ok)
	}
	if _, ok := autonosql.LookupFaultProfile("meteor", time.Minute); ok {
		t.Error("LookupFaultProfile accepted an unknown profile")
	}
}

// TestGridFaultAxis pins that the fault axis multiplies the grid, names its
// variants and leaves grids without the axis (and their variant names)
// exactly as before.
func TestGridFaultAxis(t *testing.T) {
	base := faultSpec(1)
	grid := autonosql.Grid{
		Controllers: []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerSmart},
		Faults:      autonosql.DefaultFaultProfiles(base.Duration)[:3], // none, crash, partition
	}
	if got, want := grid.Size(), 6; got != want {
		t.Fatalf("grid.Size() = %d, want %d", got, want)
	}
	variants := autonosql.ExpandGrid(base, grid)
	if len(variants) != 6 {
		t.Fatalf("expanded %d variants, want 6", len(variants))
	}
	if got, want := variants[0].Name, "ctl=none faults=none"; got != want {
		t.Errorf("variants[0].Name = %q, want %q", got, want)
	}
	if got, want := variants[1].Name, "ctl=none faults=crash"; got != want {
		t.Errorf("variants[1].Name = %q, want %q", got, want)
	}
	if !variants[0].Spec.Faults.Empty() {
		t.Error("faults=none variant carries a fault plan")
	}
	if variants[2].Spec.Faults.Empty() {
		t.Error("faults=partition variant lost its fault plan")
	}
	seen := map[int64]bool{}
	for _, v := range variants {
		if seen[v.Spec.Seed] {
			t.Errorf("duplicate derived seed %d", v.Spec.Seed)
		}
		seen[v.Spec.Seed] = true
	}

	// Without the axis, names keep their pre-fault shape.
	plain := autonosql.ExpandGrid(base, autonosql.Grid{
		Controllers: []autonosql.ControllerMode{autonosql.ControllerNone},
	})
	if got, want := plain[0].Name, "ctl=none"; got != want {
		t.Errorf("axis-free variant name = %q, want %q", got, want)
	}
}

// TestCrashFaultObservableInReport pins end-to-end injection: a crash fault
// shows up in the report's fault timeline, degrades the cluster while
// active, and the hinted-handoff machinery records activity.
func TestCrashFaultObservableInReport(t *testing.T) {
	spec := faultSpec(33)
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		autonosql.CrashFault(20*time.Second, 30*time.Second, 1),
	}}
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	var duringCrash, afterRestart int
	scenario.At(30*time.Second, func(h *autonosql.Handle) { duringCrash = h.ClusterSize() })
	scenario.At(80*time.Second, func(h *autonosql.Handle) { afterRestart = h.ClusterSize() })
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if duringCrash != 3 {
		t.Errorf("cluster size during crash = %d, want 3", duringCrash)
	}
	if afterRestart != 4 {
		t.Errorf("cluster size after restart = %d, want 4", afterRestart)
	}
	if len(rep.Faults) != 1 {
		t.Fatalf("report has %d fault windows, want 1", len(rep.Faults))
	}
	fw := rep.Faults[0]
	if fw.Kind != "crash" || fw.Start != 20*time.Second || fw.End != 50*time.Second {
		t.Errorf("fault window = %+v", fw)
	}
	if len(fw.Nodes) != 1 {
		t.Errorf("fault window nodes = %v, want one node", fw.Nodes)
	}
	if fw.Samples == 0 {
		t.Error("fault window captured no samples")
	}
	if !strings.Contains(rep.String(), "fault: crash") {
		t.Error("report String() does not mention the fault")
	}
}

// TestPartitionFaultExercisesHandoff pins that a partition makes writes to
// minority replicas queue as hints and that the window statistics reflect
// the delayed convergence after the heal.
func TestPartitionFaultExercisesHandoff(t *testing.T) {
	run := func(withFault bool) *autonosql.Report {
		spec := faultSpec(44)
		if withFault {
			spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
				autonosql.PartitionFault(20*time.Second, 40*time.Second, 1),
			}}
		}
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
	faulty, clean := run(true), run(false)
	if faulty.Window.Max <= clean.Window.Max {
		t.Errorf("partition did not widen the max window: faulty=%v clean=%v",
			faulty.Window.Max, clean.Window.Max)
	}
	if len(faulty.Faults) != 1 {
		t.Fatalf("report has %d fault windows, want 1", len(faulty.Faults))
	}
}

// TestInterventionPartitionHandle covers the Handle partition surface.
func TestInterventionPartitionHandle(t *testing.T) {
	spec := faultSpec(55)
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	var partErr, allErr error
	scenario.At(10*time.Second, func(h *autonosql.Handle) {
		partErr = h.Partition(0)
		allErr = h.Partition(0, 1, 2, 3)
	})
	scenario.At(30*time.Second, func(h *autonosql.Handle) { h.HealPartition() })
	if _, err := scenario.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if partErr != nil {
		t.Errorf("Partition(0) = %v", partErr)
	}
	if allErr == nil {
		t.Error("Partition of every node was accepted")
	}
}
