package autonosql

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// streamGridSpec is a multi-axis grid — patterns × controllers × tenant
// mixes — so the equivalence test exercises every streamed surface,
// including the per-tenant CSV.
func streamGridSpec() SuiteSpec {
	return SuiteSpec{
		Base: suiteBaseSpec(),
		Grid: Grid{
			Patterns:    []LoadPattern{LoadConstant, LoadSpike},
			Controllers: []ControllerMode{ControllerNone, ControllerSmart},
			TenantMixes: []TenantMix{
				{Name: "none"},
				{Name: "pair", Tenants: []TenantSpec{
					{Name: "gold", Class: SLAGold, Workload: WorkloadSpec{
						Pattern: LoadConstant, BaseOpsPerSec: 400, ReadFraction: 0.6,
					}},
					{Name: "bronze", Class: SLABronze, Workload: WorkloadSpec{
						Pattern: LoadConstant, BaseOpsPerSec: 200, ReadFraction: 0.3,
					}},
				}},
			},
		},
	}
}

// TestSuiteStreamMatchesInMemoryExports pins the determinism contract of the
// streaming path: aggregating one result at a time — sequentially or
// concurrently — must produce byte-identical CSV, tenant CSV and JSON to the
// in-memory SuiteReport exports, identical rendered tables, and the same
// cheapest-compliant winner. Only the JSON comparison has an independent
// reference here (json.Encoder); the other renderers are pinned against
// literals in TestSuiteReportRendersAgainstLiterals.
func TestSuiteStreamMatchesInMemoryExports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}

	inMem, err := NewSuite(streamGridSpec())
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	report, err := inMem.Run()
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	var wantCSV, wantTenants, wantJSON bytes.Buffer
	if err := report.WriteCSV(&wantCSV); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := report.WriteTenantsCSV(&wantTenants); err != nil {
		t.Fatalf("WriteTenantsCSV: %v", err)
	}
	if err := report.WriteJSON(&wantJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	const threshold = 1e9 // every variant qualifies; winner is cheapest
	wantCheapest := report.CheapestCompliant(threshold)
	if wantCheapest == nil {
		t.Fatal("in-memory report has no compliant variant under an unbounded threshold")
	}

	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			spec := streamGridSpec()
			spec.Parallelism = parallelism
			suite, err := NewSuite(spec)
			if err != nil {
				t.Fatalf("NewSuite: %v", err)
			}
			spill := t.TempDir()
			var gotCSV, gotTenants, gotJSON bytes.Buffer
			agg := NewSuiteAggregator(SuiteAggregatorOptions{
				CSV:                 &gotCSV,
				TenantsCSV:          &gotTenants,
				JSON:                &gotJSON,
				SpillDir:            spill,
				MaxViolationMinutes: threshold,
			})
			meta, err := suite.RunStream(agg.Consume())
			if err != nil {
				t.Fatalf("RunStream: %v", err)
			}
			if err := agg.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			if meta.Variants != report.Len() || meta.Failed != 0 {
				t.Errorf("RunMeta = %+v, want %d variants, 0 failed", meta, report.Len())
			}
			if agg.Added() != report.Len() {
				t.Errorf("aggregator consumed %d results, want %d", agg.Added(), report.Len())
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Errorf("streamed CSV differs from in-memory export:\n got %q\nwant %q",
					gotCSV.String(), wantCSV.String())
			}
			if !bytes.Equal(gotTenants.Bytes(), wantTenants.Bytes()) {
				t.Errorf("streamed tenant CSV differs from in-memory export:\n got %q\nwant %q",
					gotTenants.String(), wantTenants.String())
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Errorf("streamed JSON differs from in-memory export (%d vs %d bytes)",
					gotJSON.Len(), wantJSON.Len())
			}
			// The streamed JSON must also read back as a suite report.
			restored, err := ReadSuiteReportJSON(&gotJSON)
			if err != nil {
				t.Fatalf("reading streamed JSON back: %v", err)
			}
			if restored.Len() != report.Len() {
				t.Errorf("restored streamed report has %d variants, want %d", restored.Len(), report.Len())
			}

			if got, want := agg.String(), report.String(); got != want {
				t.Errorf("aggregated tables differ from in-memory tables:\n got:\n%s\nwant:\n%s", got, want)
			}
			cheapest := agg.CheapestCompliant()
			if cheapest == nil || cheapest.Name != wantCheapest.Name {
				t.Errorf("aggregated cheapest compliant = %v, want %q", cheapest, wantCheapest.Name)
			}

			entries, err := os.ReadDir(spill)
			if err != nil {
				t.Fatalf("reading spill dir: %v", err)
			}
			if len(entries) != report.Len() {
				t.Fatalf("spilled %d files, want %d", len(entries), report.Len())
			}
			// Spilled files sort in variant order thanks to the index prefix
			// and restore to the exact variant result.
			for i, e := range entries {
				if !strings.HasPrefix(e.Name(), fmt.Sprintf("%06d_", i)) {
					t.Errorf("spill file %d named %q, want index prefix %06d_", i, e.Name(), i)
				}
				b, err := os.ReadFile(filepath.Join(spill, e.Name()))
				if err != nil {
					t.Fatalf("reading spill file: %v", err)
				}
				if !strings.Contains(string(b), fmt.Sprintf("%q", report.Variants[i].Name)) {
					t.Errorf("spill file %q does not mention variant %q", e.Name(), report.Variants[i].Name)
				}
			}
		})
	}
}

// TestSuiteRunPartialReportOnFailure is the regression test for the lossy
// failure path: Suite.Run used to return (nil, err) on the first variant
// failure, discarding every completed report. It must now return the
// completed prefix alongside the error, with the failing variant carried as
// a VariantResult whose Err is set.
func TestSuiteRunPartialReportOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const n, failAt = 6, 3
	variants := make([]Variant, n)
	for i := range variants {
		spec := suiteBaseSpec()
		spec.Seed = int64(1000 + i)
		variants[i] = Variant{Name: fmt.Sprintf("v%d", i), Spec: spec}
	}
	variants[failAt].Configure = func(*Scenario) error { return fmt.Errorf("boom at %d", failAt) }

	suite, err := NewSuite(SuiteSpec{Variants: variants, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	report, err := suite.Run()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("v%d", failAt)) {
		t.Fatalf("Run error = %v, want one naming variant v%d", err, failAt)
	}
	if report == nil {
		t.Fatal("Run returned a nil report alongside the error; completed variants were discarded")
	}
	// Sequential execution stops claiming after the failure: the delivered
	// results are exactly the completed prefix plus the failed variant.
	if report.Len() != failAt+1 {
		t.Fatalf("partial report has %d variants, want %d", report.Len(), failAt+1)
	}
	for i := 0; i < failAt; i++ {
		v := report.Variants[i]
		if v.Err != nil || v.Report == nil {
			t.Errorf("completed variant %d carried Err=%v Report=%v", i, v.Err, v.Report)
		}
	}
	last := report.Variants[failAt]
	if last.Err == nil || last.Report != nil {
		t.Errorf("failed variant carried Err=%v Report=%v, want recorded error and nil report", last.Err, last.Report)
	}

	// The exports skip the failed variant's rows but keep the completed ones.
	var csvBuf bytes.Buffer
	if err := report.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV on partial report: %v", err)
	}
	if got := strings.Count(csvBuf.String(), "\n"); got != failAt+1 {
		t.Errorf("partial CSV has %d lines, want %d (header + completed rows)", got, failAt+1)
	}

	// Streamed aggregation of the same failing suite mirrors the partial
	// report byte-for-byte, JSON included (failed variants export with a
	// null report).
	var wantJSON bytes.Buffer
	if err := report.WriteJSON(&wantJSON); err != nil {
		t.Fatalf("WriteJSON on partial report: %v", err)
	}
	streamSuite, err := NewSuite(SuiteSpec{Variants: variants, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	var gotJSON bytes.Buffer
	agg := NewSuiteAggregator(SuiteAggregatorOptions{JSON: &gotJSON})
	meta, err := streamSuite.RunStream(agg.Consume())
	if err == nil {
		t.Fatal("RunStream on a failing suite returned nil error")
	}
	if err := agg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if meta.Variants != failAt+1 || meta.Failed != 1 {
		t.Errorf("RunMeta = %+v, want %d attempted, 1 failed", meta, failAt+1)
	}
	if got := agg.Failures(); len(got) != 1 || !strings.Contains(got[0].Error(), "boom") {
		t.Errorf("aggregator failures = %v, want the single boom error", got)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Errorf("streamed JSON of a failing suite differs from the in-memory partial export:\n got %q\nwant %q",
			gotJSON.String(), wantJSON.String())
	}
}

// TestSuiteStreamBoundsInFlightVariants pins the O(Parallelism) retention
// bound: with a streaming consumer, a worker may not start variant i until
// i < delivered+Parallelism. While variant 0 is stuck, at most Parallelism
// variants may have started — the unwindowed path would let spare workers
// race ahead and buffer every later report.
func TestSuiteStreamBoundsInFlightVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	const n, workers = 6, 2
	started := make(chan int, n)
	gate := make(chan struct{})
	variants := make([]Variant, n)
	for i := range variants {
		i := i
		spec := suiteBaseSpec()
		spec.Seed = int64(2000 + i)
		variants[i] = Variant{
			Name: fmt.Sprintf("v%d", i),
			Spec: spec,
			Configure: func(*Scenario) error {
				started <- i
				if i == 0 {
					<-gate // hold the head variant in flight
				}
				return nil
			},
		}
	}
	suite, err := NewSuite(SuiteSpec{Variants: variants, Parallelism: workers})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}

	type outcome struct {
		order []string
		meta  RunMeta
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		var order []string
		meta, err := suite.RunStream(func(v VariantResult) error {
			order = append(order, v.Name)
			return nil
		})
		done <- outcome{order, meta, err}
	}()

	// The first `workers` variants start...
	inFlight := map[int]bool{}
	for len(inFlight) < workers {
		select {
		case i := <-started:
			inFlight[i] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d variants started, want %d", len(inFlight), workers)
		}
	}
	for i := 0; i < workers; i++ {
		if !inFlight[i] {
			t.Errorf("variant %d not among the first started %v", i, inFlight)
		}
	}
	// ...and no further variant may start while variant 0 blocks delivery.
	select {
	case i := <-started:
		t.Errorf("variant %d started beyond the delivery window while variant 0 was in flight", i)
	case <-time.After(300 * time.Millisecond):
	}

	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("RunStream: %v", out.err)
	}
	if out.meta.Variants != n || out.meta.Failed != 0 {
		t.Errorf("RunMeta = %+v, want %d variants, 0 failed", out.meta, n)
	}
	// Delivery is in variant order regardless of completion order.
	for i, name := range out.order {
		if want := fmt.Sprintf("v%d", i); name != want {
			t.Fatalf("delivery order %v, want v0..v%d in order", out.order, n-1)
		}
	}
	if len(out.order) != n {
		t.Fatalf("delivered %d results, want %d", len(out.order), n)
	}
}

// TestSuiteAggregatorEmptyAndClosed covers the aggregator's edges without
// running simulations: an empty aggregate still emits well-formed exports,
// and Add after Close is an error.
func TestSuiteAggregatorEmptyAndClosed(t *testing.T) {
	var csvBuf, jsonBuf bytes.Buffer
	agg := NewSuiteAggregator(SuiteAggregatorOptions{CSV: &csvBuf, JSON: &jsonBuf})
	if err := agg.Close(); err != nil {
		t.Fatalf("Close on empty aggregator: %v", err)
	}
	if got, want := jsonBuf.String(), "{\n  \"Variants\": []\n}\n"; got != want {
		t.Errorf("empty JSON = %q, want %q", got, want)
	}
	var empty bytes.Buffer
	if err := (&SuiteReport{Variants: []VariantResult{}}).WriteJSON(&empty); err != nil {
		t.Fatalf("WriteJSON on empty report: %v", err)
	}
	if jsonBuf.String() != empty.String() {
		t.Errorf("empty streamed JSON %q differs from empty in-memory export %q", jsonBuf.String(), empty.String())
	}
	if !strings.HasPrefix(csvBuf.String(), "variant,") {
		t.Errorf("empty CSV missing header: %q", csvBuf.String())
	}
	if err := agg.Add(VariantResult{Name: "late"}); err == nil {
		t.Error("Add after Close succeeded")
	}
	if err := agg.Close(); err == nil {
		t.Error("Close after failed Add returned nil; the sink error must be sticky")
	}
}

// TestSuiteReportRendersAgainstLiterals is the independent side of the
// SuiteReport↔SuiteAggregator pins. SuiteReport's table, winner and CSV
// methods are one pass through a SuiteAggregator, so comparing the two only
// compares the aggregator with itself; this test compares the rendered bytes
// with literals, and the winner with its definition, on a hand-built report.
// (JSON keeps its own independent side: SuiteReport.WriteJSON is a plain
// json.Encoder.)
func TestSuiteReportRendersAgainstLiterals(t *testing.T) {
	spec := ScenarioSpec{Seed: 42, Duration: 90 * time.Second}
	spec.Workload.Pattern = LoadSpike
	spec.Controller.Mode = ControllerSmart
	spec.Cluster.InitialNodes = 3
	spec.SLA.MaxWindowP95 = 250 * time.Millisecond
	rep := func(cost, violationMinutes float64) *Report {
		return &Report{
			Reads: 1000, Writes: 500, FailedReads: 3, FailedWrites: 2, StaleReads: 7,
			Window:             LatencySummary{P50: 0.125, P95: 0.25, P99: 0.5, Max: 1},
			EstimatedWindowP95: 0.375,
			ReadLatency:        LatencySummary{P99: 0.0625},
			WriteLatency:       LatencySummary{P99: 0.03125},
			ComplianceRatio:    0.75,
			Violations:         Violations{Window: 1.5, ReadLatency: 0.5, WriteLatency: 0.25, Availability: 0.125, Total: violationMinutes},
			Cost:               CostSummary{NodeHours: 4.5, Infrastructure: 2.25, Compensation: 0.5, Penalty: 1.25, Total: cost},
			Reconfigurations:   2, MinClusterSize: 3, MaxClusterSize: 5,
			Tenants: []TenantReport{{
				Name: "gold", Class: "gold",
				Reads: 600, Writes: 300, FailedReads: 1, FailedWrites: 0, StaleReads: 4,
				Window:          LatencySummary{P50: 0.125, P95: 0.25, P99: 0.5},
				ReadLatency:     LatencySummary{P99: 0.0625},
				WriteLatency:    LatencySummary{P99: 0.03125},
				ComplianceRatio: 0.5,
				Violations:      Violations{Window: 1, ReadLatency: 0.5, WriteLatency: 0.25, Availability: 0, Total: 1.5},
				PenaltyCost:     3, CompensationCost: 0.25,
				ShedOps: 9, ThrottledMinutes: 0.5, Pinned: true,
			}},
		}
	}
	report := &SuiteReport{Variants: []VariantResult{
		{Name: "v0 failed", Spec: spec, Err: fmt.Errorf("boom")},
		{Name: "v1, quoted", Spec: spec, Report: rep(4, 2)},
	}}

	var csv, tenantsCSV bytes.Buffer
	if err := report.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := report.WriteTenantsCSV(&tenantsCSV); err != nil {
		t.Fatalf("WriteTenantsCSV: %v", err)
	}
	const wantCSV = "variant,seed,duration_s,pattern,controller,initial_nodes,sla_window_p95_ms," +
		"reads,writes,failed_reads,failed_writes,stale_reads," +
		"window_p50_ms,window_p95_ms,window_p99_ms,window_max_ms,window_estimate_p95_ms," +
		"read_p99_ms,write_p99_ms," +
		"violation_min_window,violation_min_read,violation_min_write,violation_min_availability," +
		"violation_min_total,compliance," +
		"node_hours,cost_infrastructure,cost_compensation,cost_penalty,cost_total," +
		"reconfigurations,min_nodes,max_nodes\n" +
		"\"v1, quoted\",42,90,spike,smart,3,250," +
		"1000,500,3,2,7," +
		"125,250,500,1000,375," +
		"62.5,31.25," +
		"1.5,0.5,0.25,0.125,2,0.75," +
		"4.5,2.25,0.5,1.25,4," +
		"2,3,5\n"
	if got := csv.String(); got != wantCSV {
		t.Errorf("WriteCSV:\n got %q\nwant %q", got, wantCSV)
	}
	const wantTenantsCSV = "variant,tenant,class," +
		"reads,writes,failed_reads,failed_writes,stale_reads," +
		"window_p50_ms,window_p95_ms,window_p99_ms,read_p99_ms,write_p99_ms," +
		"violation_min_window,violation_min_read,violation_min_write," +
		"violation_min_availability,violation_min_total,compliance," +
		"penalty_cost,compensation_cost,shed_ops,throttled_min,pinned\n" +
		"\"v1, quoted\",gold,gold," +
		"600,300,1,0,4," +
		"125,250,500,62.5,31.25," +
		"1,0.5,0.25,0,1.5,0.5," +
		"3,0.25,9,0.5,true\n"
	if got := tenantsCSV.String(); got != wantTenantsCSV {
		t.Errorf("WriteTenantsCSV:\n got %q\nwant %q", got, wantTenantsCSV)
	}
	const wantCostTable = "suite comparison — cost\n" +
		"variant     node-hours  infrastructure  compensation  penalty  total cost  reconfigs  nodes (min..max)\n" +
		"----------  ----------  --------------  ------------  -------  ----------  ---------  ----------------\n" +
		"v1, quoted  4.50        $2.25           $0.50         $1.25    $4.00       2          3..5            \n"
	if got := report.CostTable(); got != wantCostTable {
		t.Errorf("CostTable:\n got %q\nwant %q", got, wantCostTable)
	}

	// The winner, against its definition: lowest total cost among variants
	// within the violation budget, earlier variant on a tie, failed variants
	// and NaN totals never qualifying — returned as a pointer into Variants.
	report.Variants = append(report.Variants,
		VariantResult{Name: "v2 cheap but violating", Spec: spec, Report: rep(1, 3)},
		VariantResult{Name: "v3 tie", Spec: spec, Report: rep(4, 0)},
		VariantResult{Name: "v4 NaN minutes", Spec: spec, Report: rep(0.5, math.NaN())},
	)
	for _, tc := range []struct {
		budget float64
		want   int // index into Variants, -1 for none
	}{
		{budget: 0, want: 3},
		{budget: 2, want: 1},
		{budget: 3, want: 2},
		{budget: -1, want: -1},
	} {
		var want *VariantResult
		if tc.want >= 0 {
			want = &report.Variants[tc.want]
		}
		if got := report.CheapestCompliant(tc.budget); got != want {
			name := "none"
			if got != nil {
				name = got.Name
			}
			t.Errorf("CheapestCompliant(%v) = %s, want &Variants[%d]", tc.budget, name, tc.want)
		}
	}
}
