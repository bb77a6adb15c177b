package autonosql

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// suiteBaseSpec returns a base spec small enough that a dozen variants run in
// a few seconds of wall-clock time.
func suiteBaseSpec() ScenarioSpec {
	spec := DefaultScenarioSpec()
	spec.Duration = 20 * time.Second
	spec.SampleInterval = 5 * time.Second
	spec.Workload.BaseOpsPerSec = 600
	spec.Workload.PeakOpsPerSec = 1200
	spec.Workload.Keyspace = 1000
	spec.Controller.Mode = ControllerNone
	return spec
}

func TestExpandGridIsExhaustiveAndDeterministic(t *testing.T) {
	base := suiteBaseSpec()
	grid := Grid{
		Patterns:     []LoadPattern{LoadConstant, LoadDiurnal, LoadSpike},
		Controllers:  []ControllerMode{ControllerNone, ControllerSmart},
		ClusterSizes: []int{3, 6},
	}
	variants := ExpandGrid(base, grid)

	if got, want := len(variants), grid.Size(); got != want {
		t.Fatalf("expanded %d variants, want grid size %d", got, want)
	}
	if grid.Size() != 3*2*2 {
		t.Fatalf("grid.Size() = %d, want 12", grid.Size())
	}

	// Exhaustive: every axis combination appears exactly once.
	seen := make(map[string]bool)
	for _, v := range variants {
		key := fmt.Sprintf("%s/%s/%d", v.Spec.Workload.Pattern, v.Spec.Controller.Mode, v.Spec.Cluster.InitialNodes)
		if seen[key] {
			t.Errorf("combination %s appears twice", key)
		}
		seen[key] = true
	}
	for _, p := range grid.Patterns {
		for _, c := range grid.Controllers {
			for _, n := range grid.ClusterSizes {
				key := fmt.Sprintf("%s/%s/%d", p, c, n)
				if !seen[key] {
					t.Errorf("combination %s missing from expansion", key)
				}
			}
		}
	}

	// Deterministic: a second expansion is identical, names and seeds
	// included.
	again := ExpandGrid(base, grid)
	if !reflect.DeepEqual(variants, again) {
		t.Error("two expansions of the same base and grid differ")
	}

	// Per-variant seeds all differ from each other and from the base seed.
	seeds := make(map[int64]string)
	for _, v := range variants {
		if v.Spec.Seed == base.Seed {
			t.Errorf("variant %q kept the base seed", v.Name)
		}
		if prev, dup := seeds[v.Spec.Seed]; dup {
			t.Errorf("variants %q and %q share seed %d", prev, v.Name, v.Spec.Seed)
		}
		seeds[v.Spec.Seed] = v.Name
	}

	// A different base seed yields different variant seeds.
	base2 := base
	base2.Seed = base.Seed + 1
	for i, v := range ExpandGrid(base2, grid) {
		if v.Spec.Seed == variants[i].Spec.Seed {
			t.Errorf("variant %q has the same seed under different base seeds", v.Name)
		}
	}
}

func TestExpandGridEmptyAxesKeepBaseValues(t *testing.T) {
	base := suiteBaseSpec()
	variants := ExpandGrid(base, Grid{ClusterSizes: []int{2, 4}})
	if len(variants) != 2 {
		t.Fatalf("expanded %d variants, want 2", len(variants))
	}
	for _, v := range variants {
		if v.Spec.Workload.Pattern != base.Workload.Pattern {
			t.Errorf("variant %q changed the pattern of an un-swept axis", v.Name)
		}
		if v.Spec.SLA != base.SLA {
			t.Errorf("variant %q changed the SLA of an un-swept axis", v.Name)
		}
	}
	if variants[0].Spec.Cluster.InitialNodes != 2 || variants[1].Spec.Cluster.InitialNodes != 4 {
		t.Errorf("cluster sizes not applied in order: %d, %d",
			variants[0].Spec.Cluster.InitialNodes, variants[1].Spec.Cluster.InitialNodes)
	}
}

func TestExpandGridDegenerateKeepsBaseSpec(t *testing.T) {
	base := suiteBaseSpec()
	variants := ExpandGrid(base, Grid{})
	if len(variants) != 1 || variants[0].Name != "base" {
		t.Fatalf("degenerate grid expanded to %+v, want one variant named \"base\"", variants)
	}
	// Seed included: a suite of one must reproduce a direct scenario run.
	if !reflect.DeepEqual(variants[0].Spec, base) {
		t.Errorf("degenerate expansion changed the base spec:\n got %+v\nwant %+v", variants[0].Spec, base)
	}
}

func TestSuiteConfigureErrorAbortsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	suite, err := NewSuite(SuiteSpec{Variants: []Variant{{
		Name:      "broken",
		Spec:      suiteBaseSpec(),
		Configure: func(*Scenario) error { return fmt.Errorf("boom") },
	}}})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	if _, err := suite.Run(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("Run error = %v, want one naming variant %q", err, "broken")
	}
}

func TestExpandGridRepeatsUseDistinctSeeds(t *testing.T) {
	variants := ExpandGrid(suiteBaseSpec(), Grid{ClusterSizes: []int{3}, Repeats: 3})
	if len(variants) != 3 {
		t.Fatalf("expanded %d variants, want 3", len(variants))
	}
	for i, v := range variants {
		for _, w := range variants[i+1:] {
			if v.Spec.Seed == w.Spec.Seed {
				t.Errorf("repeats %q and %q share a seed", v.Name, w.Name)
			}
		}
	}
}

func TestNewSuiteRejectsBadSpecs(t *testing.T) {
	if _, err := NewSuite(SuiteSpec{Variants: []Variant{}}); err == nil {
		t.Error("empty suite accepted")
	}
	v := Variant{Name: "a", Spec: suiteBaseSpec()}
	if _, err := NewSuite(SuiteSpec{Variants: []Variant{v, v}}); err == nil {
		t.Error("duplicate variant names accepted")
	}
	if _, err := NewSuite(SuiteSpec{Variants: []Variant{{Spec: suiteBaseSpec()}}}); err == nil {
		t.Error("unnamed variant accepted")
	}
	bad := suiteBaseSpec()
	bad.Duration = 0
	if _, err := NewSuite(SuiteSpec{Variants: []Variant{{Name: "bad", Spec: bad}}}); err == nil {
		t.Error("invalid variant spec accepted")
	}
}

func TestSuiteConcurrentMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	spec := SuiteSpec{
		Base: suiteBaseSpec(),
		Grid: Grid{
			Patterns:     []LoadPattern{LoadConstant, LoadSpike},
			Controllers:  []ControllerMode{ControllerNone, ControllerSmart},
			ClusterSizes: []int{3},
		},
	}

	sequential := spec
	sequential.Parallelism = 1
	seqSuite, err := NewSuite(sequential)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	seqReport, err := seqSuite.Run()
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}

	concurrent := spec
	concurrent.Parallelism = 4
	conSuite, err := NewSuite(concurrent)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	conReport, err := conSuite.Run()
	if err != nil {
		t.Fatalf("concurrent run: %v", err)
	}

	// Elapsed and Parallelism are run metadata and legitimately differ
	// between runs; everything else must be identical whatever the
	// parallelism.
	seqReport.Elapsed = 0
	conReport.Elapsed = 0
	seqReport.Parallelism = 0
	conReport.Parallelism = 0
	if !reflect.DeepEqual(seqReport, conReport) {
		t.Fatal("concurrent suite report differs from sequential report")
	}

	// And a suite is re-runnable with identical results.
	conAgain, err := conSuite.Run()
	if err != nil {
		t.Fatalf("second concurrent run: %v", err)
	}
	conAgain.Elapsed = 0
	conAgain.Parallelism = 0
	if !reflect.DeepEqual(conReport, conAgain) {
		t.Fatal("re-running the same suite produced a different report")
	}
}

func TestSuiteConfigureHookRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	spec := suiteBaseSpec()
	suite, err := NewSuite(SuiteSpec{Variants: []Variant{{
		Name: "tighten",
		Spec: spec,
		Configure: func(sc *Scenario) error {
			sc.At(5*time.Second, func(h *Handle) { _ = h.SetWriteConsistency(ConsistencyQuorum) })
			return nil
		},
	}}})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	report, err := suite.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := report.Variants[0].Report.FinalConfiguration.WriteConsistency; got != ConsistencyQuorum {
		t.Fatalf("intervention not applied: final write consistency %s, want QUORUM", got)
	}
}

func TestSuiteReportCSVRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	report := runSmallSuite(t)

	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing written CSV: %v", err)
	}
	if len(records) != report.Len()+1 {
		t.Fatalf("CSV has %d records, want %d", len(records), report.Len()+1)
	}
	header := SuiteCSVHeader()
	if !reflect.DeepEqual(records[0], header) {
		t.Fatalf("CSV header mismatch:\n got %v\nwant %v", records[0], header)
	}
	col := func(name string) int {
		for i, c := range header {
			if c == name {
				return i
			}
		}
		t.Fatalf("no CSV column %q", name)
		return -1
	}
	for i, v := range report.Variants {
		row := records[i+1]
		if row[col("variant")] != v.Name {
			t.Errorf("row %d variant = %q, want %q", i, row[col("variant")], v.Name)
		}
		// Numeric cells use the shortest exact float encoding, so parsing a
		// cell back must reproduce the report value bit-for-bit.
		for cell, want := range map[string]float64{
			"window_p95_ms":       v.Report.Window.P95 * 1000,
			"read_p99_ms":         v.Report.ReadLatency.P99 * 1000,
			"violation_min_total": v.Report.Violations.Total,
			"cost_total":          v.Report.Cost.Total,
			"compliance":          v.Report.ComplianceRatio,
		} {
			got, err := strconv.ParseFloat(row[col(cell)], 64)
			if err != nil {
				t.Fatalf("row %d cell %s %q: %v", i, cell, row[col(cell)], err)
			}
			if got != want {
				t.Errorf("row %d cell %s = %v, want %v", i, cell, got, want)
			}
		}
		if seed, _ := strconv.ParseInt(row[col("seed")], 10, 64); seed != v.Spec.Seed {
			t.Errorf("row %d seed = %d, want %d", i, seed, v.Spec.Seed)
		}
	}
}

func TestSuiteReportJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	report := runSmallSuite(t)

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	restored, err := ReadSuiteReportJSON(&buf)
	if err != nil {
		t.Fatalf("ReadSuiteReportJSON: %v", err)
	}
	// Elapsed and Parallelism are measurement metadata and deliberately
	// excluded from the export, so exports of identical suites stay
	// byte-identical.
	if restored.Elapsed != 0 {
		t.Errorf("restored report has Elapsed=%v, want it excluded from JSON", restored.Elapsed)
	}
	if restored.Parallelism != 0 {
		t.Errorf("restored report has Parallelism=%v, want it excluded from JSON", restored.Parallelism)
	}
	report.Elapsed = 0
	report.Parallelism = 0
	if !reflect.DeepEqual(report, restored) {
		t.Fatal("JSON round trip changed the suite report")
	}
}

func TestSuiteReportTablesAndLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	report := runSmallSuite(t)

	if report.Find(report.Variants[0].Name) == nil {
		t.Error("Find cannot locate an existing variant")
	}
	if report.Find("no such variant") != nil {
		t.Error("Find returned a result for an unknown name")
	}
	if got := len(report.Reports()); got != report.Len() {
		t.Errorf("Reports() has %d entries, want %d", got, report.Len())
	}

	rendered := report.String()
	for _, fragment := range []string{"suite comparison — SLA outcomes", "suite comparison — cost"} {
		if !strings.Contains(rendered, fragment) {
			t.Errorf("rendered report missing %q", fragment)
		}
	}
	for _, v := range report.Variants {
		if !strings.Contains(rendered, v.Name) {
			t.Errorf("rendered report missing variant %q", v.Name)
		}
	}
}

// runSmallSuite runs a tiny two-variant suite shared by the export tests.
func runSmallSuite(t *testing.T) *SuiteReport {
	t.Helper()
	suite, err := NewSuite(SuiteSpec{
		Base: suiteBaseSpec(),
		Grid: Grid{ClusterSizes: []int{2, 3}},
	})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	report, err := suite.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return report
}

// BenchmarkNewSuite times suite set-up (grid expansion, naming, seeding and
// validation) on a 12-variant grid of 2 patterns × 3 controllers × 2 sizes.
func BenchmarkNewSuite(b *testing.B) {
	spec := SuiteSpec{
		Base: DefaultScenarioSpec(),
		Grid: Grid{
			Controllers:  []ControllerMode{ControllerNone, ControllerReactive, ControllerSmart},
			ClusterSizes: []int{3, 5},
			Patterns:     []LoadPattern{LoadConstant, LoadDiurnalSpike},
		},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewSuite(spec); err != nil {
			b.Fatal(err)
		}
	}
}
