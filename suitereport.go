package autonosql

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// VariantResult pairs one suite variant with the report its run produced, or
// with the error that kept it from producing one.
type VariantResult struct {
	// Name is the variant name.
	Name string
	// Spec is the exact scenario specification the run used.
	Spec ScenarioSpec
	// Report is the run's outcome. It is nil when the variant failed.
	Report *Report
	// Err is the variant's failure; Report is nil exactly when Err is
	// non-nil. It is excluded from JSON (errors do not round-trip); exports
	// of a partial suite carry failed variants with a null Report, and the
	// aggregate error returned by Run names them.
	Err error `json:"-"`
}

// SuiteReport is the aggregated outcome of one suite run: every variant's
// report in execution order, plus comparison tables and CSV/JSON export.
// A partial report (from a run that failed mid-suite) additionally carries
// the failed variants with Err set; every table and export below skips them.
type SuiteReport struct {
	// Variants are the per-variant results, ordered by variant index. After
	// a failed run the list holds every variant that was attempted —
	// completed ones with their reports, failed ones with Err — and omits
	// variants the abort skipped entirely.
	Variants []VariantResult
	// Elapsed is the wall-clock time the suite run took. It is measurement
	// metadata, not simulation output, so it is excluded from the JSON export
	// to keep exports of identical suites byte-identical.
	Elapsed time.Duration `json:"-"`
	// Parallelism is the number of workers the run actually used: the
	// requested bound resolved against GOMAXPROCS and clamped to the variant
	// count. Like Elapsed it is measurement metadata, excluded from JSON.
	Parallelism int `json:"-"`
}

// RunMeta is the wall-clock measurement metadata of one suite run: how long
// it took, how many workers it used, and what it attempted. It is kept out of
// the determinism-sensitive report bytes — two identical suites export
// byte-identical CSV/JSON however fast they ran — so callers that care about
// it (the nosqlsimd daemon persists one envelope per job) store it alongside
// the export rather than inside it.
type RunMeta struct {
	// Elapsed is the wall-clock time the run took.
	Elapsed time.Duration
	// Parallelism is the number of workers actually used: the requested
	// bound resolved against GOMAXPROCS and clamped to the variant count.
	Parallelism int
	// Variants is the number of variants attempted (completed plus failed).
	Variants int
	// Failed is the number of attempted variants that returned an error.
	Failed int `json:",omitempty"`
}

// ScenariosPerSecond returns the run's wall-clock throughput in scenarios per
// second (zero when the elapsed time was not recorded).
func (m RunMeta) ScenariosPerSecond() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Variants) / m.Elapsed.Seconds()
}

// RunMeta returns the report's run metadata as a standalone envelope, for
// callers that persist it next to the determinism-sensitive export.
func (r *SuiteReport) RunMeta() RunMeta {
	m := RunMeta{Elapsed: r.Elapsed, Parallelism: r.Parallelism, Variants: len(r.Variants)}
	for i := range r.Variants {
		if r.Variants[i].Err != nil {
			m.Failed++
		}
	}
	return m
}

// ScenariosPerSecond returns the suite's wall-clock throughput in scenarios
// per second (zero when the elapsed time was not recorded — in particular
// after a WriteJSON/ReadSuiteReportJSON round trip, which drops Elapsed; see
// WriteJSON).
func (r *SuiteReport) ScenariosPerSecond() float64 {
	return r.RunMeta().ScenariosPerSecond()
}

// Len returns the number of variant results.
func (r *SuiteReport) Len() int { return len(r.Variants) }

// Find returns the result with the given variant name, or nil.
func (r *SuiteReport) Find(name string) *VariantResult {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// Reports returns the per-variant reports keyed by variant name. Failed
// variants (nil report) are omitted.
func (r *SuiteReport) Reports() map[string]*Report {
	out := make(map[string]*Report, len(r.Variants))
	for _, v := range r.Variants {
		if v.Report != nil {
			out[v.Name] = v.Report
		}
	}
	return out
}

// Table titles and column headers of the suite comparison tables.
var (
	suiteComparisonTitle   = "suite comparison — SLA outcomes"
	suiteComparisonColumns = []string{"variant", "window p50 (ms)", "window p95 (ms)", "window p99 (ms)",
		"read p99 (ms)", "write p99 (ms)", "stale reads", "violation min", "compliance"}
	suiteCostTitle   = "suite comparison — cost"
	suiteCostColumns = []string{"variant", "node-hours", "infrastructure", "compensation", "penalty",
		"total cost", "reconfigs", "nodes (min..max)"}
	suiteFaultsTitle   = "suite comparison — fault windows"
	suiteFaultsColumns = []string{"variant", "fault", "active", "nodes", "window p95 mean (ms)",
		"window p95 peak (ms)", "samples in violation"}
	suiteTenantsTitle   = "suite comparison — tenants"
	suiteTenantsColumns = []string{"variant", "tenant", "class", "window p95 (ms)", "read p99 (ms)",
		"stale reads", "violation min", "compliance", "penalty", "throttle/placement"}
)

// comparisonRow renders one variant's SLA-outcome table row.
func comparisonRow(name string, rep *Report) []string {
	return []string{
		name,
		msCell(rep.Window.P50), msCell(rep.Window.P95), msCell(rep.Window.P99),
		msCell(rep.ReadLatency.P99), msCell(rep.WriteLatency.P99),
		strconv.FormatUint(rep.StaleReads, 10),
		fmt.Sprintf("%.1f", rep.Violations.Total),
		fmt.Sprintf("%.2f%%", rep.ComplianceRatio*100),
	}
}

// costRow renders one variant's cost table row.
func costRow(name string, rep *Report) []string {
	return []string{
		name,
		fmt.Sprintf("%.2f", rep.Cost.NodeHours),
		dollarCell(rep.Cost.Infrastructure), dollarCell(rep.Cost.Compensation),
		dollarCell(rep.Cost.Penalty), dollarCell(rep.Cost.Total),
		strconv.Itoa(rep.Reconfigurations),
		fmt.Sprintf("%d..%d", rep.MinClusterSize, rep.MaxClusterSize),
	}
}

// faultRowsFor renders one variant's fault-window table rows (nil when the
// variant injected no faults).
func faultRowsFor(name string, rep *Report) [][]string {
	var rows [][]string
	for _, fw := range rep.Faults {
		nodes := "-"
		if len(fw.Nodes) > 0 {
			nodes = fmt.Sprint(fw.Nodes)
		}
		rows = append(rows, []string{
			name,
			fw.Kind,
			fmt.Sprintf("%v..%v", fw.Start, fw.End),
			nodes,
			msCell(fw.WindowP95Mean), msCell(fw.WindowP95Peak),
			fmt.Sprintf("%.0f%%", fw.SLAViolationFraction*100),
		})
	}
	return rows
}

// tenantRowsFor renders one variant's tenant table rows (nil for
// single-tenant variants).
func tenantRowsFor(name string, rep *Report) [][]string {
	var rows [][]string
	for _, tr := range rep.Tenants {
		rows = append(rows, []string{
			name,
			tr.Name,
			tr.Class,
			msCell(tr.Window.P95), msCell(tr.ReadLatency.P99),
			strconv.FormatUint(tr.StaleReads, 10),
			fmt.Sprintf("%.1f", tr.Violations.Total),
			fmt.Sprintf("%.2f%%", tr.ComplianceRatio*100),
			dollarCell(tr.PenaltyCost + tr.CompensationCost),
			throttlePlacementCell(tr),
		})
	}
	return rows
}

// aggregate feeds every variant, in order, into a fresh SuiteAggregator with
// the given outputs and closes it. Every table, winner and CSV method below
// is this one pass, so the in-memory report and a streamed run cannot drift
// apart.
func (r *SuiteReport) aggregate(opts SuiteAggregatorOptions) (*SuiteAggregator, error) {
	a := NewSuiteAggregator(opts)
	for _, v := range r.Variants {
		if err := a.Add(v); err != nil {
			return a, err
		}
	}
	return a, a.Close()
}

// tables aggregates with no outputs attached; without a sink to fail,
// aggregate cannot return an error.
func (r *SuiteReport) tables(maxViolationMinutes float64) *SuiteAggregator {
	a, _ := r.aggregate(SuiteAggregatorOptions{MaxViolationMinutes: maxViolationMinutes})
	return a
}

// ComparisonTable renders the SLA-facing comparison across variants: the
// ground-truth inconsistency-window percentiles, client latency, stale
// reads, violation minutes and compliance.
func (r *SuiteReport) ComparisonTable() string { return r.tables(0).ComparisonTable() }

// CostTable renders the cost-facing comparison across variants: node-hours,
// the cost components, reconfiguration counts and cluster-size extremes.
func (r *SuiteReport) CostTable() string { return r.tables(0).CostTable() }

// FaultsTable renders the fault timeline across variants: every injected
// fault window with the inconsistency-window behaviour observed while it was
// active. It returns an empty string when no variant injected faults.
func (r *SuiteReport) FaultsTable() string { return r.tables(0).FaultsTable() }

// TenantsTable renders the per-tenant comparison across variants: every
// tenant of every multi-tenant variant with its class, ground-truth window,
// latency, violation minutes, priced penalty, and the admission / placement
// treatment the controller applied. It returns an empty string when no
// variant declared tenants.
func (r *SuiteReport) TenantsTable() string { return r.tables(0).TenantsTable() }

// throttlePlacementCell summarises one tenant's scoped-action treatment:
// throttled minutes with shed count, a "pinned" marker when the tenant's
// class held dedicated nodes, or "-" for an untreated tenant.
func throttlePlacementCell(tr TenantReport) string {
	parts := ""
	if tr.ThrottledMinutes > 0 || tr.ShedOps > 0 {
		parts = fmt.Sprintf("%.1fmin/%d shed", tr.ThrottledMinutes, tr.ShedOps)
	}
	if tr.Pinned {
		if parts != "" {
			parts += "+pinned"
		} else {
			parts = "pinned"
		}
	}
	if parts == "" {
		return "-"
	}
	return parts
}

// String renders both comparison tables, plus the fault table when any
// variant injected faults and the tenant table when any variant declared
// tenants.
func (r *SuiteReport) String() string { return r.tables(0).String() }

// CheapestCompliant returns the variant with the lowest total cost among
// those whose total violation minutes do not exceed maxViolationMinutes, or
// nil when no variant qualifies. Ties break towards the earlier variant, so
// the answer is deterministic.
func (r *SuiteReport) CheapestCompliant(maxViolationMinutes float64) *VariantResult {
	a := r.tables(maxViolationMinutes)
	if a.cheapest == nil {
		return nil
	}
	return &r.Variants[a.cheapestIdx]
}

// SuiteCSVHeader is the column header of the CSV export, in column order.
func SuiteCSVHeader() []string {
	return []string{
		"variant", "seed", "duration_s", "pattern", "controller", "initial_nodes", "sla_window_p95_ms",
		"reads", "writes", "failed_reads", "failed_writes", "stale_reads",
		"window_p50_ms", "window_p95_ms", "window_p99_ms", "window_max_ms", "window_estimate_p95_ms",
		"read_p99_ms", "write_p99_ms",
		"violation_min_window", "violation_min_read", "violation_min_write", "violation_min_availability",
		"violation_min_total", "compliance",
		"node_hours", "cost_infrastructure", "cost_compensation", "cost_penalty", "cost_total",
		"reconfigurations", "min_nodes", "max_nodes",
	}
}

// csvRow renders one variant as CSV cells matching SuiteCSVHeader.
func (v *VariantResult) csvRow() []string {
	rep := v.Report
	f := func(val float64) string { return strconv.FormatFloat(val, 'g', -1, 64) }
	u := func(val uint64) string { return strconv.FormatUint(val, 10) }
	return []string{
		v.Name,
		strconv.FormatInt(v.Spec.Seed, 10),
		f(v.Spec.Duration.Seconds()),
		string(patternOrConstant(v.Spec.Workload.Pattern)),
		string(modeOrNone(v.Spec.Controller.Mode)),
		strconv.Itoa(v.Spec.Cluster.InitialNodes),
		f(v.Spec.SLA.MaxWindowP95.Seconds() * 1000),
		u(rep.Reads), u(rep.Writes), u(rep.FailedReads), u(rep.FailedWrites), u(rep.StaleReads),
		f(rep.Window.P50 * 1000), f(rep.Window.P95 * 1000), f(rep.Window.P99 * 1000),
		f(rep.Window.Max * 1000), f(rep.EstimatedWindowP95 * 1000),
		f(rep.ReadLatency.P99 * 1000), f(rep.WriteLatency.P99 * 1000),
		f(rep.Violations.Window), f(rep.Violations.ReadLatency), f(rep.Violations.WriteLatency),
		f(rep.Violations.Availability), f(rep.Violations.Total), f(rep.ComplianceRatio),
		f(rep.Cost.NodeHours), f(rep.Cost.Infrastructure), f(rep.Cost.Compensation),
		f(rep.Cost.Penalty), f(rep.Cost.Total),
		strconv.Itoa(rep.Reconfigurations),
		strconv.Itoa(rep.MinClusterSize), strconv.Itoa(rep.MaxClusterSize),
	}
}

// WriteCSV writes the suite outcome as one CSV record per variant, headed by
// SuiteCSVHeader. The numeric cells use the shortest exact representation,
// so a written value parses back to the identical float64.
func (r *SuiteReport) WriteCSV(w io.Writer) error {
	_, err := r.aggregate(SuiteAggregatorOptions{CSV: w})
	return err
}

// TenantCSVHeader is the column header of the per-tenant CSV export, in
// column order. Tenant rows live in their own export (one row per
// variant×tenant) rather than widening SuiteCSVHeader, whose shape is fixed.
func TenantCSVHeader() []string {
	return []string{
		"variant", "tenant", "class",
		"reads", "writes", "failed_reads", "failed_writes", "stale_reads",
		"window_p50_ms", "window_p95_ms", "window_p99_ms",
		"read_p99_ms", "write_p99_ms",
		"violation_min_window", "violation_min_read", "violation_min_write",
		"violation_min_availability", "violation_min_total", "compliance",
		"penalty_cost", "compensation_cost",
		"shed_ops", "throttled_min", "pinned",
	}
}

// tenantCSVRow renders one tenant of one variant as CSV cells matching
// TenantCSVHeader.
func tenantCSVRow(variant string, tr TenantReport) []string {
	f := func(val float64) string { return strconv.FormatFloat(val, 'g', -1, 64) }
	u := func(val uint64) string { return strconv.FormatUint(val, 10) }
	return []string{
		variant, tr.Name, tr.Class,
		u(tr.Reads), u(tr.Writes), u(tr.FailedReads), u(tr.FailedWrites), u(tr.StaleReads),
		f(tr.Window.P50 * 1000), f(tr.Window.P95 * 1000), f(tr.Window.P99 * 1000),
		f(tr.ReadLatency.P99 * 1000), f(tr.WriteLatency.P99 * 1000),
		f(tr.Violations.Window), f(tr.Violations.ReadLatency), f(tr.Violations.WriteLatency),
		f(tr.Violations.Availability), f(tr.Violations.Total), f(tr.ComplianceRatio),
		f(tr.PenaltyCost), f(tr.CompensationCost),
		u(tr.ShedOps), f(tr.ThrottledMinutes), strconv.FormatBool(tr.Pinned),
	}
}

// WriteTenantsCSV writes the per-tenant outcome as one CSV record per
// variant×tenant, headed by TenantCSVHeader. Variants without tenants
// contribute no rows.
func (r *SuiteReport) WriteTenantsCSV(w io.Writer) error {
	_, err := r.aggregate(SuiteAggregatorOptions{TenantsCSV: w})
	return err
}

// WriteJSON writes the complete suite report — specs, reports and series —
// as indented JSON. ReadSuiteReportJSON restores the simulation outcome
// losslessly; the wall-clock run metadata (Elapsed, Parallelism) is
// deliberately NOT part of the export — identical suites must export
// byte-identical bytes however fast they happened to run — so
// ScenariosPerSecond reads zero after a round trip. Callers that need the
// metadata persist the RunMeta envelope alongside the export (the nosqlsimd
// daemon stores one per job).
func (r *SuiteReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("autonosql: encoding suite report: %w", err)
	}
	return nil
}

// ReadSuiteReportJSON reads a suite report written by WriteJSON. The
// restored report carries no run metadata (see WriteJSON); pair it with a
// persisted RunMeta envelope when Elapsed/Parallelism matter.
func ReadSuiteReportJSON(rd io.Reader) (*SuiteReport, error) {
	var r SuiteReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("autonosql: decoding suite report: %w", err)
	}
	return &r, nil
}

func msCell(seconds float64) string { return fmt.Sprintf("%.1f", seconds*1000) }
func dollarCell(v float64) string   { return fmt.Sprintf("$%.2f", v) }
