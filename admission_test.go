package autonosql_test

// Scoped-action tests: the -admission DSL, the golden fingerprint of a
// throttled two-tenant scenario, the regression that the admission machinery
// changes nothing while disabled, suite equivalence with the admission axis
// in play, and Handle-level throttle interventions.

import (
	"strings"
	"testing"
	"time"

	"autonosql"
)

// throttledSpec is the canonical throttled scenario: the twoTenantSpec
// gold+bronze pair under the smart controller with admission control on and
// the cluster squeezed so the bronze burst pushes gold into its band.
func throttledSpec(seed int64) autonosql.ScenarioSpec {
	spec := twoTenantSpec(seed, autonosql.ControllerSmart)
	spec.Duration = 4 * time.Minute
	spec.Cluster.NodeOpsPerSec = 1200 // force pressure so the controller acts
	spec.Controller.Predictive = false
	spec.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	return spec
}

// TestGoldenScenarioThrottle pins the throttled two-tenant path bit-for-bit:
// the planner's tenant-protection branch, the token-bucket shed path, the
// per-tenant shed/rejection ground truth and the throttle windows in the
// report all feed the fingerprint.
func TestGoldenScenarioThrottle(t *testing.T) {
	rep := runGoldenScenario(t, throttledSpec(2026))
	var shed uint64
	throttles := 0
	for _, tr := range rep.Tenants {
		shed += tr.ShedOps
		throttles += len(tr.Throttles)
	}
	if shed == 0 || throttles == 0 {
		t.Fatalf("scenario did not throttle (shed=%d windows=%d); the golden would not cover the admission path", shed, throttles)
	}
	checkGolden(t, "scenario_throttle_seed2026", fingerprintReport(rep))
}

// TestAdmissionDisabledIsByteIdentical pins the opt-in contract: a spec that
// carries admission tuning but leaves Enabled false (and the always-installed
// limiter plumbing with it) must reproduce the plain run bit-for-bit.
func TestAdmissionDisabledIsByteIdentical(t *testing.T) {
	plain := fingerprintReport(runGoldenScenario(t, twoTenantSpec(4711, autonosql.ControllerNone)))

	tuned := twoTenantSpec(4711, autonosql.ControllerNone)
	tuned.Controller.Admission = autonosql.AdmissionSpec{
		ThrottleFraction: 0.3,
		MinRate:          10,
		Cooldown:         time.Second,
		Holdoff:          time.Second,
	}
	got := fingerprintReport(runGoldenScenario(t, tuned))
	if got != plain {
		t.Fatal("admission tuning with Enabled=false changed the simulation")
	}
	// And the recorded two-tenant golden still matches, proving the scoped-
	// action refactor left untreated scenarios untouched.
	checkGolden(t, "scenario_twotenants_seed4711", got)
}

// TestThrottledTenantReportSurfaces checks the acceptance-level surface: the
// throttled run's report shows throttle windows, shed counts and scoped
// decisions that name their target.
func TestThrottledTenantReportSurfaces(t *testing.T) {
	rep := runGoldenScenario(t, throttledSpec(77))
	var bronze *autonosql.TenantReport
	for i := range rep.Tenants {
		if rep.Tenants[i].Class == "bronze" {
			bronze = &rep.Tenants[i]
		}
	}
	if bronze == nil {
		t.Fatal("no bronze tenant section")
	}
	if bronze.ShedOps == 0 || len(bronze.Throttles) == 0 || bronze.ThrottledMinutes <= 0 {
		t.Fatalf("bronze tenant not throttled: shed=%d windows=%d min=%.1f",
			bronze.ShedOps, len(bronze.Throttles), bronze.ThrottledMinutes)
	}
	// Shed operations are rejections in the tenant's ground truth.
	if bronze.FailedReads+bronze.FailedWrites < bronze.ShedOps {
		t.Errorf("shed ops (%d) not reflected in failures (%d reads + %d writes)",
			bronze.ShedOps, bronze.FailedReads, bronze.FailedWrites)
	}
	for _, w := range bronze.Throttles {
		if w.End <= w.Start || w.Rate <= 0 {
			t.Errorf("malformed throttle window %+v", w)
		}
	}
	// The rendered tenant line carries the treatment.
	if s := bronze.String(); !strings.Contains(s, "throttled=") || !strings.Contains(s, "shed") {
		t.Errorf("TenantReport.String lacks throttle info: %s", s)
	}
	// At least one decision is a scoped throttle naming the bronze tenant.
	found := false
	for _, d := range rep.Decisions {
		if strings.Contains(d, "throttle-tenant["+bronze.Name) {
			found = true
		}
	}
	if !found {
		t.Errorf("no decision names the throttled tenant:\n%s", strings.Join(rep.Decisions, "\n"))
	}
}

// TestAdmissionSuiteConcurrentEqualsSequential pins that the new admission /
// placement axis keeps the suite runner's core guarantee: a concurrent run
// produces bit-for-bit the same reports as a sequential one.
func TestAdmissionSuiteConcurrentEqualsSequential(t *testing.T) {
	off := throttledSpec(11)
	off.Duration = 60 * time.Second
	off.Controller.Admission = autonosql.AdmissionSpec{}
	on := throttledSpec(11)
	on.Duration = 60 * time.Second
	pinned := throttledSpec(11)
	pinned.Duration = 60 * time.Second
	pinned.Controller.AllowPlacement = true

	suiteSpec := autonosql.SuiteSpec{
		Variants: []autonosql.Variant{
			{Name: "admission=off", Spec: off},
			{Name: "admission=on", Spec: on},
			{Name: "admission=on placement=on", Spec: pinned},
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
			b.WriteString("== variant " + v.Name + "\n")
			b.WriteString(fingerprintReport(v.Report))
		}
		return b.String()
	}
	sequential := fingerprint(1)
	concurrent := fingerprint(3)
	if sequential != concurrent {
		t.Fatal("admission suite diverged between sequential and concurrent execution")
	}
}

// TestHandleThrottleIntervention drives admission control through a
// Scenario.At intervention instead of the controller: throttle the bronze
// tenant mid-run, release it later, and require the shed to land in the
// report.
func TestHandleThrottleIntervention(t *testing.T) {
	spec := twoTenantSpec(5, autonosql.ControllerNone)
	spec.Duration = 60 * time.Second
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	scenario.At(10*time.Second, func(h *autonosql.Handle) {
		if err := h.ThrottleTenant("bronze", 50); err != nil {
			t.Errorf("ThrottleTenant: %v", err)
		}
		if err := h.ThrottleTenant("nobody", 50); err == nil {
			t.Error("ThrottleTenant accepted an unknown tenant")
		}
	})
	scenario.At(40*time.Second, func(h *autonosql.Handle) {
		if err := h.UnthrottleTenant("bronze"); err != nil {
			t.Errorf("UnthrottleTenant: %v", err)
		}
	})
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	bronze := rep.Tenants[1]
	if bronze.ShedOps == 0 {
		t.Error("intervention throttle shed nothing")
	}
	if len(bronze.Throttles) != 1 {
		t.Fatalf("throttle windows = %v, want one", bronze.Throttles)
	}
	w := bronze.Throttles[0]
	if w.Start != 10*time.Second || w.End != 40*time.Second || w.Rate != 50 {
		t.Errorf("throttle window %+v, want 10s..40s @50ops/s", w)
	}
}

// TestParseAdmissionSpec covers the -admission DSL.
func TestParseAdmissionSpec(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		for _, s := range []string{"", "  ", "off", "OFF"} {
			spec, err := autonosql.ParseAdmissionSpec(s)
			if err != nil || spec.Enabled {
				t.Errorf("ParseAdmissionSpec(%q) = %+v, %v; want disabled", s, spec, err)
			}
		}
	})
	t.Run("on with options", func(t *testing.T) {
		spec, err := autonosql.ParseAdmissionSpec("on:frac=0.4:floor=100:cooldown=2m:hold=90s")
		if err != nil {
			t.Fatalf("ParseAdmissionSpec: %v", err)
		}
		if !spec.Enabled || spec.ThrottleFraction != 0.4 || spec.MinRate != 100 ||
			spec.Cooldown != 2*time.Minute || spec.Holdoff != 90*time.Second {
			t.Errorf("options not applied: %+v", spec)
		}
	})
	t.Run("bare on", func(t *testing.T) {
		spec, err := autonosql.ParseAdmissionSpec("on")
		if err != nil || !spec.Enabled {
			t.Fatalf("ParseAdmissionSpec(\"on\") = %+v, %v", spec, err)
		}
		base := autonosql.DefaultScenarioSpec()
		base.Controller.Admission = spec
		if err := base.Validate(); err != nil {
			t.Errorf("accepted spec fails validation: %v", err)
		}
	})
	for _, bad := range []string{
		"maybe",
		"off:frac=0.5", // off takes no options
		"on:frac=0",    // fraction must be in (0, 1)
		"on:frac=1",    // admitting everything is not a throttle
		"on:frac=NaN",  // NaN passes plain range comparisons
		"on:floor=-1",  // negative floor
		"on:floor=Inf", // non-finite floor
		"on:cooldown=-1s",
		"on:hold=xyz",
		"on:wat=1",
		"on:frac=0.4:frac=0.5", // an option may appear once
	} {
		if _, err := autonosql.ParseAdmissionSpec(bad); err == nil {
			t.Errorf("ParseAdmissionSpec(%q) accepted invalid input", bad)
		}
	}
}

// TestSuiteThrottleColumn checks the suite-level surface: the tenants table
// gains a throttle/placement column and the tenant CSV the shed/throttle
// fields.
func TestSuiteThrottleColumn(t *testing.T) {
	base := throttledSpec(9)
	base.Duration = 2 * time.Minute
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{
		Variants: []autonosql.Variant{{Name: "throttled", Spec: base}},
	})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	rep, err := suite.Run()
	if err != nil {
		t.Fatalf("suite.Run: %v", err)
	}
	table := rep.TenantsTable()
	if !strings.Contains(table, "throttle/placement") {
		t.Errorf("TenantsTable lacks throttle/placement column:\n%s", table)
	}
	if !strings.Contains(table, "shed") {
		t.Errorf("TenantsTable shows no shed treatment:\n%s", table)
	}
	var csvOut strings.Builder
	if err := rep.WriteTenantsCSV(&csvOut); err != nil {
		t.Fatalf("WriteTenantsCSV: %v", err)
	}
	header := strings.SplitN(csvOut.String(), "\n", 2)[0]
	for _, col := range []string{"shed_ops", "throttled_min", "pinned"} {
		if !strings.Contains(header, col) {
			t.Errorf("tenant CSV header lacks %q: %s", col, header)
		}
	}
}
