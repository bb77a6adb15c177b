package autonosql_test

// Multi-tenant determinism and behaviour tests: a golden fingerprint for a
// two-tenant scenario, the regression guarantee that an empty Tenants list
// reproduces the existing single-tenant goldens byte-for-byte, suite
// equivalence over a TenantMixes axis, and unit coverage of the -tenants DSL
// parser and the tenant report surfaces.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// twoTenantSpec is the canonical gold-diurnal + bronze-bursty scenario the
// golden and behaviour tests share.
func twoTenantSpec(seed int64, mode autonosql.ControllerMode) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = 90 * time.Second
	spec.Cluster.InitialNodes = 3
	spec.Cluster.NodeOpsPerSec = 2500
	spec.Controller.Mode = mode
	spec.Tenants = []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "bronze", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2,
			Keyspace: 4000,
		}},
	}
	return spec
}

// TestGoldenScenarioTwoTenants pins the multi-tenant path bit-for-bit: per
// tenant generators over disjoint key slices, tagged store ground truth,
// per-tenant SLA tracking and the per-tenant report sections.
func TestGoldenScenarioTwoTenants(t *testing.T) {
	rep := runGoldenScenario(t, twoTenantSpec(4711, autonosql.ControllerNone))
	if len(rep.Tenants) != 2 {
		t.Fatalf("report has %d tenant sections, want 2", len(rep.Tenants))
	}
	checkGolden(t, "scenario_twotenants_seed4711", fingerprintReport(rep))
}

// TestEmptyTenantsMatchesSingleTenantGolden pins the back-compat contract: a
// spec with an explicitly empty (non-nil) tenant list must reproduce the
// recorded single-tenant golden byte-for-byte.
func TestEmptyTenantsMatchesSingleTenantGolden(t *testing.T) {
	spec := goldenSpec(42, autonosql.ControllerNone)
	spec.Tenants = []autonosql.TenantSpec{}
	rep := runGoldenScenario(t, spec)
	if len(rep.Tenants) != 0 {
		t.Fatalf("empty tenant list produced %d tenant sections", len(rep.Tenants))
	}
	checkGolden(t, "scenario_none_seed42", fingerprintReport(rep))
}

// TestTwoTenantReportContents checks the acceptance-level report surface: a
// gold-diurnal + bronze-bursty run produces per-tenant window percentiles,
// violation accounting and penalty cost.
func TestTwoTenantReportContents(t *testing.T) {
	rep := runGoldenScenario(t, twoTenantSpec(99, autonosql.ControllerNone))
	if len(rep.Tenants) != 2 {
		t.Fatalf("report has %d tenant sections, want 2", len(rep.Tenants))
	}
	var totalReads, totalWrites uint64
	for _, tr := range rep.Tenants {
		if tr.Name == "" || tr.Class == "" {
			t.Errorf("tenant section missing identity: %+v", tr)
		}
		if tr.Reads == 0 || tr.Writes == 0 {
			t.Errorf("tenant %s recorded no traffic: reads=%d writes=%d", tr.Name, tr.Reads, tr.Writes)
		}
		if tr.Window.P95 <= 0 || tr.Window.P95 < tr.Window.P50 {
			t.Errorf("tenant %s window percentiles malformed: p50=%v p95=%v", tr.Name, tr.Window.P50, tr.Window.P95)
		}
		if tr.ComplianceRatio < 0 || tr.ComplianceRatio > 1 {
			t.Errorf("tenant %s compliance %v outside [0,1]", tr.Name, tr.ComplianceRatio)
		}
		if tr.PenaltyCost < 0 || tr.CompensationCost < 0 {
			t.Errorf("tenant %s negative cost: penalty=%v compensation=%v", tr.Name, tr.PenaltyCost, tr.CompensationCost)
		}
		totalReads += tr.Reads
		totalWrites += tr.Writes
	}
	// Tenant-attributed traffic must exactly account for all client
	// operations (probes are untagged and excluded from Reads/Writes... the
	// aggregate counters include probe writes, so tenant totals are a lower
	// bound that must still cover the overwhelming majority).
	if totalReads > rep.Reads || totalWrites > rep.Writes {
		t.Errorf("tenant totals exceed aggregate: %d/%d reads, %d/%d writes",
			totalReads, rep.Reads, totalWrites, rep.Writes)
	}
	if rep.Reads-totalReads > rep.Reads/10 {
		t.Errorf("more than 10%% of reads unattributed: %d of %d", rep.Reads-totalReads, rep.Reads)
	}
	// Per-tenant series exist alongside the aggregate ones.
	for _, name := range []string{"tenant/gold/window_p95_ms", "tenant/bronze/window_p95_ms"} {
		if len(rep.Series[name]) == 0 {
			t.Errorf("missing per-tenant series %q", name)
		}
	}
	// The rendered report carries the tenant sections.
	if s := rep.String(); !strings.Contains(s, "tenant gold(gold)") || !strings.Contains(s, "tenant bronze(bronze)") {
		t.Errorf("Report.String lacks tenant sections:\n%s", s)
	}
}

// TestTenantSuiteConcurrentEqualsSequential pins that the TenantMixes axis
// keeps the suite runner's core guarantee: a concurrent run produces
// bit-for-bit the same reports as a sequential one.
func TestTenantSuiteConcurrentEqualsSequential(t *testing.T) {
	base := autonosql.DefaultScenarioSpec()
	base.Seed = 11
	base.Duration = 45 * time.Second
	base.Workload.BaseOpsPerSec = 1500
	suiteSpec := autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{
			Controllers: []autonosql.ControllerMode{autonosql.ControllerNone, autonosql.ControllerSmart},
			TenantMixes: autonosql.DefaultTenantMixes()[:2], // none, gold-bronze
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
			fmt.Fprintf(&b, "== variant %s\n%s", v.Name, fingerprintReport(v.Report))
		}
		return b.String()
	}
	sequential := fingerprint(1)
	concurrent := fingerprint(4)
	if sequential != concurrent {
		t.Fatal("tenant suite diverged between sequential and concurrent execution")
	}
}

// TestTenantMixAxisExpansion checks the grid axis: names carry the mix, the
// tenant lists land on the variants, and the none mix keeps single-tenant
// behaviour.
func TestTenantMixAxisExpansion(t *testing.T) {
	base := autonosql.DefaultScenarioSpec()
	grid := autonosql.Grid{
		Controllers: []autonosql.ControllerMode{autonosql.ControllerNone},
		TenantMixes: autonosql.DefaultTenantMixes(),
	}
	variants := autonosql.ExpandGrid(base, grid)
	if len(variants) != 3 {
		t.Fatalf("expanded %d variants, want 3", len(variants))
	}
	wantNames := []string{
		"ctl=none tenants=none",
		"ctl=none tenants=gold-bronze",
		"ctl=none tenants=three-tier",
	}
	wantTenants := []int{0, 2, 3}
	for i, v := range variants {
		if v.Name != wantNames[i] {
			t.Errorf("variant %d name %q, want %q", i, v.Name, wantNames[i])
		}
		if len(v.Spec.Tenants) != wantTenants[i] {
			t.Errorf("variant %q has %d tenants, want %d", v.Name, len(v.Spec.Tenants), wantTenants[i])
		}
		if err := v.Spec.Validate(); err != nil {
			t.Errorf("variant %q spec invalid: %v", v.Name, err)
		}
	}
}

// TestParseTenantSpecs covers the -tenants DSL.
func TestParseTenantSpecs(t *testing.T) {
	t.Run("issue example", func(t *testing.T) {
		specs, err := autonosql.ParseTenantSpecs("gold:diurnal:2000,bronze:constant:500")
		if err != nil {
			t.Fatalf("ParseTenantSpecs: %v", err)
		}
		if len(specs) != 2 {
			t.Fatalf("parsed %d tenants, want 2", len(specs))
		}
		if specs[0].Name != "gold" || specs[0].Class != autonosql.SLAGold ||
			specs[0].Workload.Pattern != autonosql.LoadDiurnal || specs[0].Workload.BaseOpsPerSec != 2000 {
			t.Errorf("first tenant parsed wrong: %+v", specs[0])
		}
		if specs[1].Name != "bronze" || specs[1].Workload.BaseOpsPerSec != 500 {
			t.Errorf("second tenant parsed wrong: %+v", specs[1])
		}
	})

	t.Run("options and names", func(t *testing.T) {
		specs, err := autonosql.ParseTenantSpecs(
			"gold:constant:1500:name=checkout:read=0.9:keys=5000,gold:spike:300:peak=3000")
		if err != nil {
			t.Fatalf("ParseTenantSpecs: %v", err)
		}
		if specs[0].Name != "checkout" || specs[0].Workload.ReadFraction != 0.9 || specs[0].Workload.Keyspace != 5000 {
			t.Errorf("options not applied: %+v", specs[0])
		}
		if specs[1].Name != "gold" || specs[1].Workload.PeakOpsPerSec != 3000 {
			t.Errorf("second gold tenant parsed wrong: %+v", specs[1])
		}
	})

	t.Run("duplicate default names disambiguated", func(t *testing.T) {
		specs, err := autonosql.ParseTenantSpecs("bronze:constant:100,bronze:constant:200")
		if err != nil {
			t.Fatalf("ParseTenantSpecs: %v", err)
		}
		if specs[0].Name != "bronze" || specs[1].Name != "bronze2" {
			t.Errorf("default names not disambiguated: %q, %q", specs[0].Name, specs[1].Name)
		}
	})

	t.Run("empty is single-tenant", func(t *testing.T) {
		specs, err := autonosql.ParseTenantSpecs("  ")
		if err != nil || specs != nil {
			t.Fatalf("blank input: specs=%v err=%v", specs, err)
		}
	})

	for _, bad := range []string{
		"platinum:constant:100",   // unknown class
		"gold:sawtooth:100",       // unknown pattern
		"gold:constant",           // missing rate
		"gold:constant:abc",       // malformed rate
		"gold:constant:-5",        // negative rate
		"gold:constant:100:wat=1", // unknown option
		"gold:constant:100:read=1.5",
		"gold:constant:Inf",          // non-finite rate would flood the event queue
		"gold:constant:100:peak=NaN", // NaN passes plain range comparisons
		"gold:constant:100:read=NaN",
		"gold:constant:100:name=a,gold:constant:200:name=a", // duplicate names
		"gold:constant:100:name=",                           // empty name
		"gold:constant:100:peak=200:peak=300",               // an option may appear once
	} {
		if _, err := autonosql.ParseTenantSpecs(bad); err == nil {
			t.Errorf("ParseTenantSpecs(%q) accepted invalid input", bad)
		}
	}
}

// TestTenantSpecValidation covers ScenarioSpec.Validate over tenant lists.
func TestTenantSpecValidation(t *testing.T) {
	spec := autonosql.DefaultScenarioSpec()
	spec.Tenants = []autonosql.TenantSpec{
		{Name: "a", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{BaseOpsPerSec: 10}},
		{Name: "a", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{BaseOpsPerSec: 10}},
	}
	if err := spec.Validate(); err == nil {
		t.Error("duplicate tenant names validated")
	}
	spec.Tenants = []autonosql.TenantSpec{{Name: "a", Class: "platinum"}}
	if err := spec.Validate(); err == nil {
		t.Error("unknown class validated")
	}
	spec.Tenants = []autonosql.TenantSpec{{Class: autonosql.SLAGold}}
	if err := spec.Validate(); err == nil {
		t.Error("unnamed tenant validated")
	}
	// JSON cannot carry a name that is not UTF-8: the spec would not
	// survive its own encoding.
	spec.Tenants = []autonosql.TenantSpec{{Name: "\xb49", Class: autonosql.SLAGold}}
	if err := spec.Validate(); err == nil {
		t.Error("tenant name that is not UTF-8 validated")
	}
	spec.Tenants = []autonosql.TenantSpec{
		{Name: "ok", Class: autonosql.SLASilver, Workload: autonosql.WorkloadSpec{BaseOpsPerSec: 10}},
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid tenant list rejected: %v", err)
	}
}

// TestTenantSuiteSurfaces smoke-tests the suite report's tenant table and
// per-tenant CSV export.
func TestTenantSuiteSurfaces(t *testing.T) {
	base := twoTenantSpec(5, autonosql.ControllerNone)
	base.Duration = 30 * time.Second
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{
		Base: base,
		Grid: autonosql.Grid{Controllers: []autonosql.ControllerMode{autonosql.ControllerNone}},
	})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	rep, err := suite.Run()
	if err != nil {
		t.Fatalf("suite.Run: %v", err)
	}
	table := rep.TenantsTable()
	for _, want := range []string{"gold", "bronze", "penalty", "violation min"} {
		if !strings.Contains(table, want) {
			t.Errorf("TenantsTable missing %q:\n%s", want, table)
		}
	}
	var csvOut strings.Builder
	if err := rep.WriteTenantsCSV(&csvOut); err != nil {
		t.Fatalf("WriteTenantsCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 { // header + 2 tenants
		t.Fatalf("tenant CSV has %d lines, want 3:\n%s", len(lines), csvOut.String())
	}
	if !strings.HasPrefix(lines[0], "variant,tenant,class,") {
		t.Errorf("tenant CSV header malformed: %s", lines[0])
	}
}

// TestTenantDecisionLogNamesTenant drives the smart controller in an
// overloaded two-tenant scenario and requires every decision line to name
// the tenant that drove it.
func TestTenantDecisionLogNamesTenant(t *testing.T) {
	spec := twoTenantSpec(7, autonosql.ControllerSmart)
	spec.Duration = 3 * time.Minute
	spec.Cluster.NodeOpsPerSec = 1200 // force pressure so the controller acts
	rep := runGoldenScenario(t, spec)
	if len(rep.Decisions) == 0 {
		t.Fatal("smart controller took no decisions under overload")
	}
	for _, d := range rep.Decisions {
		if !strings.Contains(d, "tenant=") {
			t.Errorf("decision does not name a tenant: %s", d)
		}
	}
}
