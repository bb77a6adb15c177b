package autonosql

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"autonosql/internal/core"
	"autonosql/internal/fault"
	"autonosql/internal/metrics"
	"autonosql/internal/sla"
	"autonosql/internal/tenant"
)

// SeriesPoint is one sample of a report time series.
type SeriesPoint struct {
	// At is the virtual time of the sample.
	At time.Duration
	// Value is the sampled value (units depend on the series).
	Value float64
}

// LatencySummary summarises a latency distribution in seconds.
type LatencySummary struct {
	Mean float64
	P50  float64
	P95  float64
	P99  float64
	Max  float64
}

// Violations is the SLA violation accounting of a run, in minutes.
type Violations struct {
	// Window is the time the inconsistency-window clause was violated.
	Window float64
	// ReadLatency and WriteLatency are the latency-clause violation times.
	ReadLatency  float64
	WriteLatency float64
	// Availability is the error-rate-clause violation time.
	Availability float64
	// Total is the time at least one clause was violated (clauses can overlap).
	Total float64
}

// CostSummary is the priced outcome of a run.
type CostSummary struct {
	// NodeHours is the consumed node-hours.
	NodeHours float64
	// Infrastructure, Compensation and Penalty are the cost components.
	Infrastructure float64
	Compensation   float64
	Penalty        float64
	// Total is the sum of all components.
	Total float64
}

// ConfigurationSummary is the store/cluster configuration at one point in
// time.
type ConfigurationSummary struct {
	ClusterSize       int
	ReplicationFactor int
	ReadConsistency   ConsistencyLevel
	WriteConsistency  ConsistencyLevel
	// PinnedClass is the SLA class holding dedicated nodes, or "".
	PinnedClass string `json:",omitempty"`
}

// FaultWindow is one injected fault as it actually struck, annotated with
// the system's behaviour while it was active: the ground-truth inconsistency
// window over the report samples inside the fault interval and the fraction
// of those samples that violated the SLA's window clause.
type FaultWindow struct {
	// Kind is the fault class (crash, slow, partition, storm).
	Kind string
	// Start and End delimit the fault's active interval in virtual time.
	Start time.Duration
	End   time.Duration
	// Nodes are the IDs of the nodes the fault touched (empty for storms).
	Nodes []int
	// Severity is the injected intensity (zero for crash and partition).
	Severity float64

	// Samples is the number of report samples inside [Start, End].
	Samples int
	// WindowP95Mean and WindowP95Peak summarise the sampled ground-truth
	// p95 inconsistency window during the fault, in seconds.
	WindowP95Mean float64
	WindowP95Peak float64
	// SLAViolationFraction is the fraction of samples during the fault whose
	// window p95 exceeded the SLA bound.
	SLAViolationFraction float64
}

// String renders the window compactly.
func (w FaultWindow) String() string {
	s := fmt.Sprintf("%s %v..%v", w.Kind, w.Start, w.End)
	if len(w.Nodes) > 0 {
		s += fmt.Sprintf(" nodes=%v", w.Nodes)
	}
	if w.Severity > 0 {
		s += fmt.Sprintf(" sev=%.2f", w.Severity)
	}
	s += fmt.Sprintf(" | window p95 mean=%s peak=%s, %.0f%% of samples in violation",
		ms(w.WindowP95Mean), ms(w.WindowP95Peak), w.SLAViolationFraction*100)
	return s
}

// ThrottleWindow is one contiguous interval during which a tenant ran under
// admission control at the given admitted rate (ops/s).
type ThrottleWindow struct {
	Start time.Duration
	End   time.Duration
	Rate  float64
}

// String renders the window compactly.
func (w ThrottleWindow) String() string {
	return fmt.Sprintf("%v..%v @%.0fops/s", w.Start, w.End, w.Rate)
}

// TenantReport is one tenant's slice of a multi-tenant run: its traffic,
// its ground-truth inconsistency-window and latency distributions, its
// compliance against its own SLA class, the money its violations and stale
// reads cost, and the admission-control / placement treatment the
// controller applied to it.
type TenantReport struct {
	// Name and Class identify the tenant and its SLA class.
	Name  string
	Class string

	// Traffic and failure counts, attributed from the store's ground truth.
	// Operations shed by admission control count as failures.
	Reads         uint64
	Writes        uint64
	FailedReads   uint64
	FailedWrites  uint64
	StaleReads    uint64
	StaleReadRate float64

	// ShedOps counts operations rejected by admission control before they
	// reached the store; Throttles is the tenant's throttle timeline and
	// ThrottledMinutes its total duration. All zero for untreated tenants.
	ShedOps          uint64
	Throttles        []ThrottleWindow `json:",omitempty"`
	ThrottledMinutes float64
	// Pinned reports whether the tenant's class held dedicated nodes when
	// the run ended.
	Pinned bool

	// DelayedOps counts operations queued by delay-mode admission control
	// instead of being shed; MaxQueueDepth is the deepest the queue got and
	// QueueDepth its depth when the run ended (operations still waiting).
	// All zero unless the admission spec ran with mode=delay.
	DelayedOps    uint64 `json:",omitempty"`
	MaxQueueDepth int    `json:",omitempty"`
	QueueDepth    int    `json:",omitempty"`

	// Window is the tenant's ground-truth inconsistency-window distribution
	// (seconds) over its own writes.
	Window LatencySummary
	// ReadLatency and WriteLatency are the tenant's client-observed
	// latencies (seconds).
	ReadLatency  LatencySummary
	WriteLatency LatencySummary

	// ComplianceRatio and Violations measure the tenant against its own SLA
	// class bounds.
	ComplianceRatio float64
	Violations      Violations

	// PenaltyCost prices the tenant's violation minutes at its class rate;
	// CompensationCost prices its stale reads.
	PenaltyCost      float64
	CompensationCost float64
}

// String renders the tenant section compactly. Admission and placement
// treatment is appended only when present, so untreated tenants render
// exactly as before.
func (t TenantReport) String() string {
	s := fmt.Sprintf("%s(%s): %d reads (%d stale), %d writes, window p95=%s read p99=%s, compliance=%.2f%%, violation=%.1fmin, penalty=$%.2f",
		t.Name, t.Class, t.Reads, t.StaleReads, t.Writes,
		ms(t.Window.P95), ms(t.ReadLatency.P99),
		t.ComplianceRatio*100, t.Violations.Total, t.PenaltyCost+t.CompensationCost)
	if t.ShedOps > 0 || t.ThrottledMinutes > 0 {
		s += fmt.Sprintf(", throttled=%.1fmin (%d windows, %d shed)",
			t.ThrottledMinutes, len(t.Throttles), t.ShedOps)
	}
	if t.DelayedOps > 0 {
		s += fmt.Sprintf(", delayed=%d (max queue %d)", t.DelayedOps, t.MaxQueueDepth)
	}
	if t.Pinned {
		s += ", pinned"
	}
	return s
}

// AuditCooldown is one knowledge-base cooldown consult made while planning a
// control decision.
type AuditCooldown struct {
	// Kind is the action kind whose cooldown was consulted.
	Kind string
	// Scope is the consult's scope ("tenant:x", "class:gold"; empty for
	// cluster-wide).
	Scope string `json:",omitempty"`
	// Active reports whether the cooldown blocked the candidate.
	Active bool
}

// AuditVeto is one candidate action the planner considered and rejected.
type AuditVeto struct {
	Kind   string
	Scope  string `json:",omitempty"`
	Reason string
}

// AuditEntry is the causal account of one control interval: what the
// controller saw, which cooldowns and vetoes shaped the plan, which branch
// produced the action and how the actuation went. Recorded only when
// Observe.Audit is set; auditing changes no decision.
type AuditEntry struct {
	// At is the interval's virtual time.
	At time.Duration
	// Branch is the planning branch that produced the action.
	Branch string
	// Condition and Cause echo the analysis verdict.
	Condition string
	Cause     string `json:",omitempty"`
	// Tenant names the tenant whose penalty-weighted signal drove the
	// analysis, and WindowP95 is the driving window observation in seconds.
	Tenant    string `json:",omitempty"`
	WindowP95 float64
	// Cooldowns and Vetoes list the consults and rejections, in plan order.
	Cooldowns []AuditCooldown `json:",omitempty"`
	Vetoes    []AuditVeto     `json:",omitempty"`
	// Action, Applied and Err mirror the decision's outcome.
	Action  string
	Applied bool
	Err     string `json:",omitempty"`
}

// String renders the entry compactly for logs.
func (e AuditEntry) String() string {
	status := "noop"
	if e.Applied {
		status = "applied"
	} else if e.Err != "" {
		status = "failed: " + e.Err
	}
	s := fmt.Sprintf("[%8s] %-14s %-20s %-9s window=%.0fms cooldowns=%d vetoes=%d",
		e.At.Truncate(time.Second), e.Branch, e.Action, status,
		e.WindowP95*1000, len(e.Cooldowns), len(e.Vetoes))
	if e.Tenant != "" {
		s += " tenant=" + e.Tenant
	}
	for _, v := range e.Vetoes {
		s += fmt.Sprintf(" [veto %s: %s]", v.Kind, v.Reason)
	}
	return s
}

// SpanStats summarises the op tracer's sampling outcome.
type SpanStats struct {
	// Seen is how many operations were offered to the sampler, Sampled how
	// many were elected, and Dropped how many sampled traces the retention
	// cap evicted.
	Seen    uint64
	Sampled uint64
	Dropped uint64
}

// ProfileReport is the engine's deterministic self-profiling section,
// populated only when Observe.Profile is set. Wall-clock quantities are
// deliberately absent — they vary run to run — and live in the benchmark's
// measurements (bench/) instead.
type ProfileReport struct {
	// Events counts fired events; PoolHits/PoolMisses measure the
	// pooled-event free list, and HeapPeak is the largest pending-event heap
	// the run reached.
	Events     uint64
	PoolHits   uint64
	PoolMisses uint64
	HeapPeak   int
	// Rounds, MailDrained and Feeds are always zero or nil. They exist only
	// because the benchmark's lane counters (bench/) still read them, and are
	// deleted with those counters.
	Rounds      uint64       `json:",omitempty"`
	MailDrained uint64       `json:",omitempty"`
	Feeds       *FeedProfile `json:",omitempty"`
}

// FeedProfile is always absent from reports. It exists only because the
// benchmark's lane counters (bench/) still read it, and is deleted with them.
type FeedProfile struct {
	Refills uint64
	Inline  uint64
}

// String renders the profile compactly.
func (p ProfileReport) String() string {
	total := p.PoolHits + p.PoolMisses
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(p.PoolHits) / float64(total)
	}
	return fmt.Sprintf("%d events, pool hit %.1f%%, heap peak %d", p.Events, hitRate*100, p.HeapPeak)
}

// Report is the outcome of one scenario run.
type Report struct {
	// Spec echoes the scenario specification the run used.
	Spec ScenarioSpec
	// Duration is the simulated time covered.
	Duration time.Duration

	// Operations and failure counts, from the store's ground truth.
	Reads         uint64
	Writes        uint64
	FailedReads   uint64
	FailedWrites  uint64
	StaleReads    uint64
	StaleReadRate float64

	// Window is the ground-truth inconsistency-window distribution (seconds).
	Window LatencySummary
	// EstimatedWindowP95 is the monitor's final 95th-percentile estimate
	// (seconds), for comparing estimate vs. truth.
	EstimatedWindowP95 float64
	// ReadLatency and WriteLatency are client-observed latencies (seconds).
	ReadLatency  LatencySummary
	WriteLatency LatencySummary

	// MonitoringProbeOps is the number of extra operations issued by active
	// probing.
	MonitoringProbeOps uint64
	// MonitoringOverheadFraction is probe operations as a fraction of all
	// operations.
	MonitoringOverheadFraction float64

	// SLA compliance.
	ComplianceRatio float64
	Violations      Violations

	// Cost.
	Cost CostSummary

	// Final and extreme configurations observed.
	FinalConfiguration ConfigurationSummary
	MaxClusterSize     int
	MinClusterSize     int

	// Reconfigurations is the number of actions the controller applied.
	Reconfigurations int
	// Decisions is the controller's decision log rendered as strings
	// (empty for ControllerNone).
	Decisions []string

	// Faults is the timeline of injected faults with per-window behaviour
	// stats (empty for fault-free runs).
	Faults []FaultWindow

	// Tenants holds the per-tenant sections of a multi-tenant run, in
	// declaration order (empty for single-tenant runs).
	Tenants []TenantReport `json:",omitempty"`

	// Audit is the MAPE decision audit trail (nil unless Observe.Audit).
	Audit []AuditEntry `json:",omitempty"`
	// Spans summarises op-trace sampling (nil unless Observe.TraceOps); the
	// traces themselves export through Scenario.WriteSpans and the daemon's
	// streaming endpoints, not the report.
	Spans *SpanStats `json:",omitempty"`
	// Profile is the engine self-profiling section (nil unless
	// Observe.Profile).
	Profile *ProfileReport `json:",omitempty"`

	// Series are the sampled time series, keyed by the Series* constants.
	Series map[string][]SeriesPoint
}

// buildReport assembles the report after the simulation has finished.
func (s *Scenario) buildReport() *Report {
	stats := s.store.Stats()
	summary := s.tracker.Summary()

	totalOps := stats.Reads + stats.Writes
	probeOps := s.monitor.ProbeOps()

	r := &Report{
		Spec:               s.spec,
		Duration:           s.spec.Duration,
		Reads:              stats.Reads,
		Writes:             stats.Writes,
		FailedReads:        stats.ReadFailures,
		FailedWrites:       stats.WriteFailures,
		StaleReads:         stats.StaleReads,
		Window:             latencySummary(stats.Window),
		EstimatedWindowP95: s.monitor.WindowQuantile(0.95),
		ReadLatency:        latencySummary(stats.ReadLatency),
		WriteLatency:       latencySummary(stats.WriteLatency),
		MonitoringProbeOps: probeOps,
		ComplianceRatio:    summary.ComplianceRatio,
		Violations:         violations(s.tracker),
		MaxClusterSize:     s.maxNodes,
		MinClusterSize:     s.minNodes,
		FinalConfiguration: ConfigurationSummary{
			ClusterSize:       s.cluster.Size(),
			ReplicationFactor: s.store.ReplicationFactor(),
			ReadConsistency:   consistencyFromStore(s.store.ReadConsistency()),
			WriteConsistency:  consistencyFromStore(s.store.WriteConsistency()),
			PinnedClass:       s.store.PinnedClass(),
		},
		Series: make(map[string][]SeriesPoint, len(s.series)),
	}
	if stats.Reads > 0 {
		r.StaleReadRate = float64(stats.StaleReads) / float64(stats.Reads)
	}
	if totalOps+probeOps > 0 {
		r.MonitoringOverheadFraction = float64(probeOps) / float64(totalOps+probeOps)
	}

	nodeSeconds := s.cluster.NodeSeconds()
	cost := s.costs.Price(sla.Usage{
		NodeSeconds:   nodeSeconds,
		StaleReads:    stats.StaleReads,
		ViolationTime: summary.TotalViolationTime,
	})
	r.Cost = CostSummary{
		NodeHours:      nodeSeconds / 3600,
		Infrastructure: cost.Infrastructure,
		Compensation:   cost.Compensation,
		Penalty:        cost.Penalty,
		Total:          cost.Total(),
	}

	var decisions []core.Decision
	switch {
	case s.smart != nil:
		r.Reconfigurations, decisions = s.smart.Reconfigurations(), s.smart.Decisions()
	case s.reactive != nil:
		r.Reconfigurations, decisions = s.reactive.Reconfigurations(), s.reactive.Decisions()
	}
	for _, d := range decisions {
		if !d.Action.IsNoop() {
			r.Decisions = append(r.Decisions, d.String())
		}
	}

	for name, ts := range s.series {
		pts := ts.Points()
		out := make([]SeriesPoint, len(pts))
		for i, p := range pts {
			out[i] = SeriesPoint{At: p.At, Value: p.Value}
		}
		r.Series[name] = out
	}

	if s.injector != nil {
		r.Faults = buildFaultWindows(s.injector.Timeline(), r.Series[SeriesWindowP95],
			s.spec.SLA.MaxWindowP95)
	}

	for _, rt := range s.tenantRuntimes {
		r.Tenants = append(r.Tenants, buildTenantReport(s, rt))
	}

	// Observability sections. Populated only on request, so an unobserved
	// run's report stays byte-identical to pre-observability output.
	if ob := s.spec.Observe; ob != nil {
		if s.tracer != nil {
			r.Spans = &SpanStats{
				Seen:    s.tracer.Seen(),
				Sampled: s.tracer.Sampled(),
				Dropped: s.tracer.Dropped(),
			}
		}
		if ob.Audit && s.smart != nil {
			r.Audit = auditEntries(s.smart.Audit())
		}
		if ob.Profile {
			r.Profile = s.profileReport()
		}
	}
	return r
}

// auditEntries mirrors the controller's audit trail into report types.
func auditEntries(trail []core.AuditRecord) []AuditEntry {
	if len(trail) == 0 {
		return nil
	}
	out := make([]AuditEntry, len(trail))
	for i, rec := range trail {
		e := AuditEntry{
			At:        rec.At,
			Branch:    rec.Branch,
			Condition: rec.Condition,
			Cause:     rec.Cause,
			Tenant:    rec.Tenant,
			WindowP95: rec.WindowP95,
			Action:    rec.Action,
			Applied:   rec.Applied,
			Err:       rec.Err,
		}
		for _, cd := range rec.Cooldowns {
			e.Cooldowns = append(e.Cooldowns, AuditCooldown(cd))
		}
		for _, v := range rec.Vetoes {
			e.Vetoes = append(e.Vetoes, AuditVeto(v))
		}
		out[i] = e
	}
	return out
}

// profileReport snapshots the run's engine counters.
func (s *Scenario) profileReport() *ProfileReport {
	p := s.engine.Profile()
	return &ProfileReport{
		Events:     p.Processed,
		PoolHits:   p.PoolHits,
		PoolMisses: p.PoolMisses,
		HeapPeak:   p.HeapPeak,
	}
}

// buildTenantReport assembles one tenant's section: store-attributed ground
// truth plus the runtime's own compliance accounting, priced at the
// tenant's class rates.
func buildTenantReport(s *Scenario, rt *tenant.Runtime) TenantReport {
	gt := s.store.TenantStats(rt.ID())
	class := rt.Class()
	sum := rt.Summarize()

	tr := TenantReport{
		Name:             rt.Name(),
		Class:            string(class.Class),
		Reads:            gt.Reads,
		Writes:           gt.Writes,
		FailedReads:      gt.ReadFailures,
		FailedWrites:     gt.WriteFailures,
		StaleReads:       gt.StaleReads,
		ShedOps:          gt.ShedOps,
		Pinned:           s.store.ClassPinned(string(class.Class)),
		Window:           latencySummary(gt.Window),
		ReadLatency:      latencySummary(gt.ReadLatency),
		WriteLatency:     latencySummary(gt.WriteLatency),
		ComplianceRatio:  sum.Compliance.ComplianceRatio,
		Violations:       violations(rt.Tracker()),
		PenaltyCost:      sum.Penalty,
		CompensationCost: float64(gt.StaleReads) * class.StaleReadCompensation,
	}
	if gt.Reads > 0 {
		tr.StaleReadRate = float64(gt.StaleReads) / float64(gt.Reads)
	}
	for _, w := range rt.ThrottleWindows(s.spec.Duration) {
		tr.Throttles = append(tr.Throttles, ThrottleWindow{Start: w.Start, End: w.End, Rate: w.Rate})
	}
	tr.ThrottledMinutes = rt.ThrottledTime(s.spec.Duration).Minutes()
	tr.DelayedOps = rt.DelayedOps()
	tr.MaxQueueDepth = rt.MaxQueueDepth()
	tr.QueueDepth = rt.QueueDepth()
	return tr
}

// latencySummary copies a histogram snapshot into the report's summary.
func latencySummary(h metrics.Snapshot) LatencySummary {
	return LatencySummary{Mean: h.Mean, P50: h.P50, P95: h.P95, P99: h.P99, Max: h.Max}
}

// violations reads a tracker's violation minutes, clause by clause.
func violations(t *sla.Tracker) Violations {
	return Violations{
		Window:       t.ViolationMinutes(sla.ClauseWindow),
		ReadLatency:  t.ViolationMinutes(sla.ClauseReadLatency),
		WriteLatency: t.ViolationMinutes(sla.ClauseWriteLatency),
		Availability: t.ViolationMinutes(sla.ClauseAvailability),
		Total:        t.TotalViolationMinutes(),
	}
}

// buildFaultWindows annotates the injector's timeline with the behaviour the
// sampled series recorded while each fault was active.
func buildFaultWindows(timeline []fault.Window, windowP95 []SeriesPoint, slaBound time.Duration) []FaultWindow {
	if len(timeline) == 0 {
		return nil
	}
	boundMs := slaBound.Seconds() * 1000
	out := make([]FaultWindow, 0, len(timeline))
	for _, w := range timeline {
		fw := FaultWindow{
			Kind:     w.Kind.String(),
			Start:    w.Start,
			End:      w.End,
			Severity: w.Severity,
		}
		for _, id := range w.Nodes {
			fw.Nodes = append(fw.Nodes, int(id))
		}
		violations := 0
		for _, p := range windowP95 {
			if p.At < w.Start || p.At > w.End {
				continue
			}
			fw.Samples++
			v := p.Value / 1000 // series is in milliseconds
			fw.WindowP95Mean += v
			if v > fw.WindowP95Peak {
				fw.WindowP95Peak = v
			}
			if boundMs > 0 && p.Value > boundMs {
				violations++
			}
		}
		if fw.Samples > 0 {
			fw.WindowP95Mean /= float64(fw.Samples)
			fw.SLAViolationFraction = float64(violations) / float64(fw.Samples)
		}
		out = append(out, fw)
	}
	return out
}

// String renders the report as a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "autonosql run: %v, controller=%s, pattern=%s\n",
		r.Duration, modeOrNone(r.Spec.Controller.Mode), patternOrConstant(r.Spec.Workload.Pattern))
	fmt.Fprintf(&b, "  operations: %d reads (%d failed, %d stale, %.3f%% stale), %d writes (%d failed)\n",
		r.Reads, r.FailedReads, r.StaleReads, r.StaleReadRate*100, r.Writes, r.FailedWrites)
	fmt.Fprintf(&b, "  inconsistency window: p50=%s p95=%s p99=%s max=%s (monitor estimate p95=%s)\n",
		ms(r.Window.P50), ms(r.Window.P95), ms(r.Window.P99), ms(r.Window.Max), ms(r.EstimatedWindowP95))
	fmt.Fprintf(&b, "  latency: read p99=%s write p99=%s\n", ms(r.ReadLatency.P99), ms(r.WriteLatency.P99))
	fmt.Fprintf(&b, "  monitoring: %d probe ops (%.2f%% of traffic)\n",
		r.MonitoringProbeOps, r.MonitoringOverheadFraction*100)
	fmt.Fprintf(&b, "  SLA: compliance=%.2f%% violation-minutes window=%.1f read=%.1f write=%.1f availability=%.1f\n",
		r.ComplianceRatio*100, r.Violations.Window, r.Violations.ReadLatency,
		r.Violations.WriteLatency, r.Violations.Availability)
	fmt.Fprintf(&b, "  cost: $%.2f (infra $%.2f over %.2f node-hours, compensation $%.2f, penalty $%.2f)\n",
		r.Cost.Total, r.Cost.Infrastructure, r.Cost.NodeHours, r.Cost.Compensation, r.Cost.Penalty)
	pinned := ""
	if r.FinalConfiguration.PinnedClass != "" {
		pinned = " pinned=" + r.FinalConfiguration.PinnedClass
	}
	fmt.Fprintf(&b, "  configuration: nodes=%d (min=%d max=%d) rf=%d cl=%s/%s%s, %d reconfigurations\n",
		r.FinalConfiguration.ClusterSize, r.MinClusterSize, r.MaxClusterSize,
		r.FinalConfiguration.ReplicationFactor, r.FinalConfiguration.ReadConsistency,
		r.FinalConfiguration.WriteConsistency, pinned, r.Reconfigurations)
	for _, fw := range r.Faults {
		fmt.Fprintf(&b, "  fault: %s\n", fw)
	}
	for _, tr := range r.Tenants {
		fmt.Fprintf(&b, "  tenant %s\n", tr)
	}
	if r.Spans != nil {
		fmt.Fprintf(&b, "  spans: %d sampled of %d ops (%d evicted)\n",
			r.Spans.Sampled, r.Spans.Seen, r.Spans.Dropped)
	}
	if len(r.Audit) > 0 {
		fmt.Fprintf(&b, "  audit: %d control intervals recorded\n", len(r.Audit))
	}
	if r.Profile != nil {
		fmt.Fprintf(&b, "  profile: %s\n", r.Profile)
	}
	return b.String()
}

// PlotSeries renders one of the report's time series as a fixed-width ASCII
// plot, bucketed to roughly 30 rows. It returns an empty string for an
// unknown series name.
func (r *Report) PlotSeries(name string, width int) string {
	pts, ok := r.Series[name]
	if !ok || len(pts) == 0 {
		return ""
	}
	if width <= 0 {
		width = 50
	}
	bucket := r.Duration / 30
	if bucket <= 0 {
		bucket = time.Second
	}
	// Re-bucket the points.
	type agg struct {
		sum float64
		n   int
	}
	buckets := make(map[int]*agg)
	for _, p := range pts {
		idx := int(p.At / bucket)
		a, ok := buckets[idx]
		if !ok {
			a = &agg{}
			buckets[idx] = a
		}
		a.sum += p.Value
		a.n++
	}
	idxs := make([]int, 0, len(buckets))
	max := 0.0
	for i, a := range buckets {
		idxs = append(idxs, i)
		if v := a.sum / float64(a.n); v > max {
			max = v
		}
	}
	sort.Ints(idxs)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max=%.4g)\n", name, max)
	for _, i := range idxs {
		v := buckets[i].sum / float64(buckets[i].n)
		bars := 0
		if max > 0 {
			bars = int(v / max * float64(width))
		}
		fmt.Fprintf(&b, "%8s |%s %.4g\n", (time.Duration(i) * bucket).Truncate(time.Second), strings.Repeat("#", bars), v)
	}
	return b.String()
}

func ms(seconds float64) string {
	return fmt.Sprintf("%.1fms", seconds*1000)
}

func modeOrNone(m ControllerMode) ControllerMode {
	if m == "" {
		return ControllerNone
	}
	return m
}

func patternOrConstant(p LoadPattern) LoadPattern {
	if p == "" {
		return LoadConstant
	}
	return p
}
