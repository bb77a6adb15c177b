package autonosql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"autonosql/internal/tenant"
)

// SLAClass names a per-tenant service class: gold, silver or bronze. Each
// class maps to a preset per-tenant SLA (window, latency and availability
// bounds) and penalty/compensation rates; gold is the strictest and most
// expensive to violate, bronze the loosest and cheapest.
type SLAClass string

// Supported SLA classes.
const (
	// SLAGold is the premium class. While any gold tenant is in violation,
	// the smart controller refuses to scale the cluster in.
	SLAGold SLAClass = "gold"
	// SLASilver is the standard class.
	SLASilver SLAClass = "silver"
	// SLABronze is the best-effort class.
	SLABronze SLAClass = "bronze"
)

// toInternal maps the public class name onto the tenant subsystem's class.
func (c SLAClass) toInternal() (tenant.Class, error) {
	return tenant.ParseClass(string(c))
}

// TenantSpec describes one named tenant of a multi-tenant scenario: its SLA
// class and its own client workload. Tenants share the cluster and the store
// but drive disjoint slices of the key space, and every operation they issue
// is attributed to them in the report.
type TenantSpec struct {
	// Name identifies the tenant in reports, series names and the decision
	// log. Names must be unique within a scenario, and UTF-8.
	Name string
	// Class selects the tenant's SLA class (gold, silver or bronze).
	Class SLAClass
	// Workload is the tenant's offered traffic. Keyspace zero defaults to
	// 10000 keys; the slice each tenant works in is automatically offset so
	// tenants never share keys.
	Workload WorkloadSpec
}

// finiteNonNegative reports whether v is a finite number >= 0. Plain range
// comparisons are false for NaN, so a spec carrying NaN (or +Inf, which
// would collapse every inter-arrival gap to the minimum and flood the event
// queue) must be rejected explicitly.
func finiteNonNegative(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// validate reports whether the tenant spec is well formed.
func (t TenantSpec) validate() error {
	if strings.TrimSpace(t.Name) == "" || !utf8.ValidString(t.Name) {
		return fmt.Errorf("tenant name %q is blank or not UTF-8", t.Name)
	}
	if _, err := t.Class.toInternal(); err != nil {
		return fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	if err := t.Workload.validate(); err != nil {
		return fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	return nil
}

// maxTenants bounds the number of tenants one scenario may declare; it
// protects the event queue from pathological fuzz inputs, not a realistic
// configuration.
const maxTenants = 64

// validateTenants checks a scenario's tenant list as a whole.
func validateTenants(tenants []TenantSpec) error {
	if len(tenants) > maxTenants {
		return fmt.Errorf("too many tenants (%d, max %d)", len(tenants), maxTenants)
	}
	seen := make(map[string]struct{}, len(tenants))
	for i, t := range tenants {
		if err := t.validate(); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		if _, dup := seen[t.Name]; dup {
			return fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = struct{}{}
	}
	return nil
}

// ParseTenantSpecs parses the comma-separated -tenants DSL, one tenant per
// element:
//
//	class:pattern:base[:peak=P][:read=F][:keys=K][:name=N]
//
// where class is gold, silver or bronze, pattern is a load pattern
// (constant, step, diurnal, spike, diurnal+spike) and base is the offered
// base rate in ops/s. Options: peak rate for non-constant patterns, read
// fraction (default 0.5), keyspace size, and an explicit tenant name (the
// default name is the class, suffixed with an ordinal when repeated).
// Examples:
//
//	gold:diurnal:2000,bronze:constant:500
//	gold:constant:1500:name=checkout,bronze:spike:300:peak=3000:read=0.9
//
// An empty string parses to no tenants (single-tenant behaviour). Ranges are
// TenantSpec's and validateTenants' to check, so every accepted list passes
// ScenarioSpec validation.
func ParseTenantSpecs(s string) ([]TenantSpec, error) {
	var specs []TenantSpec
	nameCount := make(map[string]int)
	err := parseDSLList("tenant", s, func(elem string) error {
		t := TenantSpec{Workload: WorkloadSpec{ReadFraction: 0.5}}
		w := &t.Workload
		fields, err := parseDSLElement(elem, "class:pattern:base", dslOptions{
			"peak": setOption(&w.PeakOpsPerSec, parseFloat),
			"read": setOption(&w.ReadFraction, parseFloat),
			"keys": setOption(&w.Keyspace, strconv.Atoi),
			"name": func(v string) error { t.Name = strings.TrimSpace(v); return nil },
		})
		if err != nil {
			return err
		}
		t.Class = SLAClass(strings.ToLower(fields[0]))
		w.Pattern = LoadPattern(strings.ToLower(fields[1]))
		if w.BaseOpsPerSec, err = parseFloat(fields[2]); err != nil {
			return fmt.Errorf("base rate: %w", err)
		}
		if t.Name == "" {
			nameCount[string(t.Class)]++
			t.Name = string(t.Class)
			if n := nameCount[t.Name]; n > 1 {
				t.Name += strconv.Itoa(n)
			}
		}
		specs = append(specs, t)
		return t.validate()
	})
	if err != nil {
		return nil, err
	}
	if err := validateTenants(specs); err != nil {
		return nil, fmt.Errorf("autonosql: tenants: %w", err)
	}
	return specs, nil
}

// TenantMix is a named tenant population used as a suite axis, analogous to
// SLATier and FaultProfile on their axes.
type TenantMix struct {
	// Name identifies the mix in variant names and report rows.
	Name string
	// Tenants is the tenant list applied to variants on this mix; empty
	// keeps single-tenant behaviour.
	Tenants []TenantSpec
}

// DefaultTenantMixes returns the canonical named tenant populations the
// suite runner and CLI expose: none (single-tenant), gold-bronze (a premium
// diurnal service sharing the cluster with a best-effort constant batch
// load) and three-tier (gold diurnal + silver constant + bronze bursty).
func DefaultTenantMixes() []TenantMix {
	return []TenantMix{
		{Name: "none"},
		{Name: "gold-bronze", Tenants: []TenantSpec{
			{Name: "gold", Class: SLAGold, Workload: WorkloadSpec{
				Pattern: LoadDiurnal, BaseOpsPerSec: 1200, PeakOpsPerSec: 2400, ReadFraction: 0.6,
			}},
			{Name: "bronze", Class: SLABronze, Workload: WorkloadSpec{
				Pattern: LoadConstant, BaseOpsPerSec: 800, ReadFraction: 0.2,
			}},
		}},
		{Name: "three-tier", Tenants: []TenantSpec{
			{Name: "gold", Class: SLAGold, Workload: WorkloadSpec{
				Pattern: LoadDiurnal, BaseOpsPerSec: 1000, PeakOpsPerSec: 2000, ReadFraction: 0.6,
			}},
			{Name: "silver", Class: SLASilver, Workload: WorkloadSpec{
				Pattern: LoadConstant, BaseOpsPerSec: 700, ReadFraction: 0.5,
			}},
			{Name: "bronze", Class: SLABronze, Workload: WorkloadSpec{
				Pattern: LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 2500, ReadFraction: 0.2,
			}},
		}},
	}
}

// LookupTenantMix returns the default mix with the given name.
func LookupTenantMix(name string) (TenantMix, bool) {
	for _, m := range DefaultTenantMixes() {
		if m.Name == name {
			return m, true
		}
	}
	return TenantMix{}, false
}

// tenantSeriesName builds the per-tenant report series key, e.g.
// "tenant/gold/window_p95_ms".
func tenantSeriesName(tenantName, series string) string {
	return "tenant/" + tenantName + "/" + series
}
