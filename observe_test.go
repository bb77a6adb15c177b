package autonosql_test

// Observability tests: the deterministic tracing/audit/profiling layer must
// be (a) invisible — enabling it cannot perturb the simulation, so the
// committed golden fingerprints still hold bit-for-bit — and (b) itself
// deterministic — span and audit exports are stamped in virtual time only.

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"autonosql"
	"autonosql/internal/obs"
)

// observedSpec arms every observability surface on top of a golden spec.
func observedSpec(spec autonosql.ScenarioSpec) autonosql.ScenarioSpec {
	spec.Observe = &autonosql.ObserveSpec{
		TraceOps:    true,
		SampleEvery: 50,
		Audit:       true,
		Profile:     true,
	}
	return spec
}

// observedRun runs spec and returns the report plus the JSONL span export.
func observedRun(t *testing.T, spec autonosql.ScenarioSpec) (*autonosql.Report, []byte, []byte) {
	t.Helper()
	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	rep, err := scenario.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var spans, chrome bytes.Buffer
	if err := scenario.WriteSpans(&spans); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if err := scenario.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return rep, spans.Bytes(), chrome.Bytes()
}

// TestObserveZeroEffect pins a zero observer effect: running the committed
// golden scenarios with every observability surface armed must reproduce the
// committed fingerprints bit-for-bit, because tracing only annotates ops the
// simulation was executing anyway and never schedules events of its own.
// Every armed surface must also deliver: sampled spans in the report and the
// JSONL export, a well-formed Chrome trace, and an audit trail for the
// controller-driven (throttled) scenario.
func TestObserveZeroEffect(t *testing.T) {
	cases := []struct {
		name      string
		golden    string
		spec      autonosql.ScenarioSpec
		wantAudit bool
	}{
		{"none", "scenario_none_seed42", goldenSpec(42, autonosql.ControllerNone), false},
		{"twotenants", "scenario_twotenants_seed4711", twoTenantSpec(4711, autonosql.ControllerNone), false},
		{"throttle", "scenario_throttle_seed2026", throttledSpec(2026), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, spans, chrome := observedRun(t, observedSpec(c.spec))
			checkGolden(t, c.golden, fingerprintReport(rep))
			if rep.Spans == nil || rep.Spans.Sampled == 0 {
				t.Errorf("report Spans = %+v, want sampled > 0", rep.Spans)
			}
			if len(spans) == 0 {
				t.Error("observed run exported no spans")
			}
			var events []json.RawMessage
			if err := json.Unmarshal(chrome, &events); err != nil || len(events) == 0 {
				t.Errorf("Chrome trace holds %d events (%v), want a non-empty JSON array", len(events), err)
			}
			if c.wantAudit && len(rep.Audit) == 0 {
				t.Error("controller run produced no audit entries")
			}
		})
	}
}

// TestObserveDisabledReportOmitsSections pins the wire format: a report from
// a run without Observe carries no Audit/Spans/Profile JSON keys, so every
// pre-observability consumer sees byte-identical documents.
func TestObserveDisabledReportOmitsSections(t *testing.T) {
	rep := runGoldenScenario(t, goldenSpec(42, autonosql.ControllerNone))
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	for _, key := range []string{`"Audit"`, `"Spans"`, `"Profile"`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("Observe-disabled report JSON contains %s", key)
		}
	}
}

// TestObserveMaxTraces pins the retention cap: with MaxTraces set the tracer
// keeps the newest N sampled traces, counts the evicted rest as Dropped, and
// the export carries exactly N lines.
func TestObserveMaxTraces(t *testing.T) {
	spec := goldenSpec(42, autonosql.ControllerNone)
	spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 10, MaxTraces: 25}
	rep, spans, _ := observedRun(t, spec)
	if rep.Spans == nil {
		t.Fatal("report has no span stats")
	}
	if rep.Spans.Sampled <= 25 {
		t.Fatalf("Sampled = %d, want more elections than the cap retains", rep.Spans.Sampled)
	}
	if got, want := rep.Spans.Dropped, rep.Spans.Sampled-25; got != want {
		t.Fatalf("Dropped = %d, want Sampled-MaxTraces = %d", got, want)
	}
	if lines := bytes.Count(spans, []byte{'\n'}); lines != 25 {
		t.Fatalf("span export has %d lines, want 25", lines)
	}
}

// TestLatencyQuantilesMatchSpans is an oracle for the report's latency
// quantiles that needs no golden. With every operation traced, which moves
// nothing (TestObserveZeroEffect), each read's latency runs from its span's
// start to its client-done event, and each write's to its client-ack. The
// spans must account for every read and write the report counts, and for
// every sample of the store's latency histograms; the report's p50, p95
// and p99 must then lie within 2⁻⁷ of the exact quantiles of those
// latencies, the bound of the histograms' buckets.
func TestLatencyQuantilesMatchSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("traces every operation of three golden runs")
	}
	smart := goldenSpec(1234, autonosql.ControllerSmart)
	smart.Duration = 2 * time.Minute
	for name, spec := range map[string]autonosql.ScenarioSpec{
		"none":       goldenSpec(42, autonosql.ControllerNone),
		"smart":      smart,
		"twotenants": twoTenantSpec(4711, autonosql.ControllerNone),
	} {
		t.Run(name, func(t *testing.T) {
			// The sink sees every finished span. The operations still in
			// flight at the end are among the newest, which the tracer
			// retains.
			spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 1, MaxTraces: 1 << 10}
			scenario, err := autonosql.NewScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			var reads, writes []time.Duration
			var dispatched [2]uint64 // reads, writes
			collect := func(tr *obs.OpTrace) {
				for _, ev := range tr.Events {
					switch ev.Phase {
					case "dispatch":
						if tr.Write {
							dispatched[1]++
						} else {
							dispatched[0]++
						}
					case "client-done":
						reads = append(reads, ev.At-tr.Start)
					case "client-ack":
						writes = append(writes, ev.At-tr.Start)
					}
				}
			}
			scenario.OnSpan(collect)
			rep, err := scenario.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range autonosql.RetainedTraces(scenario) {
				if !tr.Done {
					collect(tr)
				}
			}
			if dispatched != [2]uint64{rep.Reads, rep.Writes} {
				t.Fatalf("spans dispatched %d reads and %d writes, the report counts %d and %d",
					dispatched[0], dispatched[1], rep.Reads, rep.Writes)
			}
			if r, w := autonosql.LatencyCounts(scenario); uint64(len(reads)) != r || uint64(len(writes)) != w {
				t.Fatalf("spans completed %d reads and %d writes, the latency histograms hold %d and %d",
					len(reads), len(writes), r, w)
			}
			checkSpanQuantiles(t, "read", rep.ReadLatency, reads)
			checkSpanQuantiles(t, "write", rep.WriteLatency, writes)
		})
	}
}

// checkSpanQuantiles holds a report summary's quantiles to the exact ones of
// the latencies, interpolated between the two nearest ranks.
func checkSpanQuantiles(t *testing.T, kind string, got autonosql.LatencySummary, latencies []time.Duration) {
	t.Helper()
	slices.Sort(latencies)
	const bound = 0x1p-7 * (1 + 0x1p-40) // the slack covers rounding to float seconds
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		pos := c.q * float64(len(latencies)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		exact := latencies[lo].Seconds()*(1-frac) + latencies[lo+1].Seconds()*frac
		if math.Abs(c.got-exact) > bound*exact {
			t.Errorf("%s p%v = %v, exact %v over %d spans: off by %.3g, bound 2^-7",
				kind, c.q*100, c.got, exact, len(latencies), math.Abs(c.got-exact)/exact)
		}
	}
}
