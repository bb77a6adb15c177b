package autonosql_test

// Native Go fuzz targets for the public spec surface. Three properties are
// pinned:
//
//  1. validate-never-panics: ScenarioSpec.Validate (and ParseFaultPlan) must
//     reject arbitrary input with an error, never a panic.
//  2. valid-spec-always-runs: any spec that Validate accepts must assemble
//     and complete a (shortened) run without error. This is the contract the
//     suite runner relies on — NewSuite validates variants up front and
//     treats later failures as bugs.
//  3. parse-encode-canonical: any trace ParseWorkloadTrace accepts must
//     re-encode to a canonical byte stream that parses back identically —
//     the byte-identity replay goldens depend on it. Likewise any tenant
//     list, admission spec or fault plan a DSL parser accepts survives a
//     round trip through JSON unchanged: the DSLs are sugar over the spec.
//
// Seed corpora live under testdata/fuzz/<FuzzName>/ in the standard format,
// so `go test` exercises them on every ordinary test run; CI additionally
// runs each target briefly with -fuzz.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// fuzzSpec builds a ScenarioSpec from raw fuzz inputs without any
// sanitisation beyond bounding the simulated work a valid spec may demand,
// so the fuzzer explores validation edge cases while runs stay fast.
func fuzzSpec(seed, durationMs, sampleMs int64, nodes, rf, keyspace int,
	baseOps, peakOps, readFrac, probeRate, severity float64,
	readCL, writeCL, controller, pattern, keys, faultKind string, faultAtMs, faultDurMs int64, faultNodes int) autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = time.Duration(durationMs) * time.Millisecond
	spec.SampleInterval = time.Duration(sampleMs) * time.Millisecond
	spec.Cluster.InitialNodes = nodes
	spec.Store.ReplicationFactor = rf
	spec.Store.ReadConsistency = autonosql.ConsistencyLevel(readCL)
	spec.Store.WriteConsistency = autonosql.ConsistencyLevel(writeCL)
	spec.Controller.Mode = autonosql.ControllerMode(controller)
	spec.Workload.Pattern = autonosql.LoadPattern(pattern)
	spec.Workload.Keys = autonosql.KeyDistribution(keys)
	spec.Workload.Keyspace = keyspace
	spec.Workload.BaseOpsPerSec = baseOps
	spec.Workload.PeakOpsPerSec = peakOps
	spec.Workload.ReadFraction = readFrac
	spec.Monitor.ProbeRate = probeRate
	spec.Faults = autonosql.FaultPlan{Faults: []autonosql.FaultSpec{{
		Kind:     autonosql.FaultKind(faultKind),
		At:       time.Duration(faultAtMs) * time.Millisecond,
		Duration: time.Duration(faultDurMs) * time.Millisecond,
		Nodes:    faultNodes,
		Severity: severity,
	}}}
	return spec
}

// boundForRun caps the simulated work of an already-validated spec so one
// fuzz execution stays in the low milliseconds. Only magnitudes are clamped;
// the structural fields under test are left untouched.
func boundForRun(spec autonosql.ScenarioSpec) autonosql.ScenarioSpec {
	if spec.Duration > 2*time.Second {
		spec.Duration = 2 * time.Second
	}
	if spec.Workload.BaseOpsPerSec > 300 {
		spec.Workload.BaseOpsPerSec = 300
	}
	if spec.Workload.PeakOpsPerSec > 300 {
		spec.Workload.PeakOpsPerSec = 300
	}
	if spec.Workload.Keyspace > 2000 {
		spec.Workload.Keyspace = 2000
	}
	if spec.Cluster.InitialNodes > 12 {
		spec.Cluster.InitialNodes = 12
	}
	if spec.Store.ReplicationFactor > 12 {
		spec.Store.ReplicationFactor = 12
	}
	if spec.Monitor.ProbeRate > 20 {
		spec.Monitor.ProbeRate = 20
	}
	return spec
}

func FuzzSpecValidate(f *testing.F) {
	// One healthy spec, one of every controller/pattern family, and a few
	// hostile shapes (nonsense strings, extreme magnitudes, weird faults).
	f.Add(int64(1), int64(5000), int64(500), 3, 3, 100, 50.0, 0.0, 0.5, 1.0, 0.0,
		"ONE", "ONE", "none", "constant", "zipfian", "crash", int64(1000), int64(1000), 1)
	f.Add(int64(42), int64(2000), int64(250), 4, 3, 50, 80.0, 120.0, 0.9, 2.0, 0.7,
		"QUORUM", "ALL", "smart", "diurnal+spike", "latest", "storm", int64(500), int64(800), 0)
	f.Add(int64(-7), int64(1000), int64(100), 2, 2, 10, 10.0, 20.0, 0.0, 0.5, 0.4,
		"TWO", "QUORUM", "reactive", "step", "uniform", "slow", int64(0), int64(0), 2)
	f.Add(int64(0), int64(-5), int64(0), 0, 0, -3, -1.0, -2.0, 1.5, -1.0, -0.5,
		"THREE", "", "chaos-monkey", "sawtooth", "gaussian", "meteor", int64(-1), int64(-1), -2)
	f.Add(int64(9), int64(3000), int64(300), 5, 9, 100, 60.0, 0.0, 0.5, 1.0, 1.0,
		"one", "all", "", "spike", "", "partition", int64(1500), int64(900), 99)

	f.Fuzz(func(t *testing.T, seed, durationMs, sampleMs int64, nodes, rf, keyspace int,
		baseOps, peakOps, readFrac, probeRate, severity float64,
		readCL, writeCL, controller, pattern, keys, faultKind string, faultAtMs, faultDurMs int64, faultNodes int) {
		spec := fuzzSpec(seed, durationMs, sampleMs, nodes, rf, keyspace,
			baseOps, peakOps, readFrac, probeRate, severity,
			readCL, writeCL, controller, pattern, keys, faultKind, faultAtMs, faultDurMs, faultNodes)
		// Property 1: Validate never panics, whatever the input.
		if err := spec.Validate(); err != nil {
			return
		}
		// Property 2: a spec that validated must run to completion.
		spec = boundForRun(spec)
		scenario, err := autonosql.NewScenario(spec)
		if err != nil {
			t.Fatalf("valid spec rejected by NewScenario: %v\nspec: %+v", err, spec)
		}
		rep, err := scenario.Run()
		if err != nil {
			t.Fatalf("valid spec failed to run: %v\nspec: %+v", err, spec)
		}
		if rep.Duration != spec.Duration {
			t.Fatalf("report duration %v != spec duration %v", rep.Duration, spec.Duration)
		}
	})
}

// jsonRoundTrip fails t unless v, encoded as JSON and decoded into a fresh
// value of its type, is DeepEqual to v.
func jsonRoundTrip[T any](t *testing.T, input string, v T) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%q: accepted spec does not encode: %v", input, err)
	}
	var back T
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("%q: spec JSON %s does not decode: %v", input, b, err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%q: spec changed across the JSON round trip:\n got %+v\nwant %+v", input, back, v)
	}
}

func FuzzParseTenantSpec(f *testing.F) {
	f.Add("gold:diurnal:2000,bronze:constant:500")
	f.Add("gold:constant:1500:name=checkout:read=0.9:keys=5000")
	f.Add("bronze:spike:300:peak=3000,bronze:constant:100")
	f.Add("silver:diurnal+spike:800:peak=1600:read=0.5")
	f.Add("")
	f.Add("gold:diurnal:2000,,  ,bronze:constant:0")
	f.Add("platinum:constant:100")
	f.Add("gold:constant:1e309")
	f.Add("gold:constant:100:name=a,gold:constant:100:name=a")
	f.Add("gold:constant:100:wat=1:sev=2")
	f.Add("gold:constant:100:read=0.2:read=0.3")
	f.Add("gold:constant:100:name=")
	f.Add("gold:constant:100:name= x")

	f.Fuzz(func(t *testing.T, s string) {
		specs, err := autonosql.ParseTenantSpecs(s)
		if err != nil {
			return // rejected without panicking: fine
		}
		// Parser contract: accepted tenant lists always pass spec validation
		// (names filled in and unique, classes and patterns known, rates
		// bounded), and produce one tenant per non-blank element.
		spec := autonosql.DefaultScenarioSpec()
		spec.Tenants = specs
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseTenantSpecs(%q) accepted a list that fails validation: %v", s, verr)
		}
		elems := 0
		for _, part := range strings.Split(s, ",") {
			if strings.TrimSpace(part) != "" {
				elems++
			}
		}
		if len(specs) != elems {
			t.Fatalf("ParseTenantSpecs(%q) produced %d tenants for %d elements", s, len(specs), elems)
		}
		jsonRoundTrip(t, s, specs)
	})
}

func FuzzParseAdmissionSpec(f *testing.F) {
	f.Add("")
	f.Add("off")
	f.Add("on")
	f.Add("on:frac=0.4:floor=100")
	f.Add("on:cooldown=2m:hold=90s")
	f.Add("ON:frac=0.999999")
	f.Add("on:frac=NaN")
	f.Add("on:floor=1e309")
	f.Add("off:frac=0.5")
	f.Add("on:wat=1")
	f.Add("on:frac=:floor=")
	f.Add("on:frac=0")
	f.Add("on:frac=0.3:frac=0.4")
	f.Add("on:name=")

	f.Fuzz(func(t *testing.T, s string) {
		spec, err := autonosql.ParseAdmissionSpec(s)
		if err != nil {
			return // rejected without panicking: fine
		}
		// Parser contract: accepted admission specs always pass scenario
		// validation (fractions in range, rates finite, durations
		// non-negative).
		base := autonosql.DefaultScenarioSpec()
		base.Controller.Admission = spec
		if verr := base.Validate(); verr != nil {
			t.Fatalf("ParseAdmissionSpec(%q) accepted a spec that fails validation: %v", s, verr)
		}
		// A disabled spec must be the zero value: "off" carries no tuning.
		if !spec.Enabled && spec != (autonosql.AdmissionSpec{}) {
			t.Fatalf("ParseAdmissionSpec(%q) produced tuning on a disabled spec: %+v", s, spec)
		}
		jsonRoundTrip(t, s, spec)
	})
}

func FuzzParseTrace(f *testing.F) {
	// Valid traces (multi-tenant, anonymous, raw keys, empty), then one seed
	// per rejection path: bad version, duplicate tenants, negative and
	// out-of-order times, bad opcode, unknown tenant, key/raw conflicts,
	// missing key, unknown header field, plain garbage.
	f.Add("{\"v\":1,\"tenants\":[\"gold\",\"bronze\"]}\n{\"t\":1000,\"tn\":\"gold\",\"op\":\"r\",\"k\":17}\n{\"t\":2000,\"tn\":\"bronze\",\"op\":\"w\",\"k\":3}\n")
	f.Add("{\"v\":1}\n{\"t\":0,\"op\":\"r\",\"k\":0}\n{\"t\":0,\"op\":\"w\",\"raw\":\"user:42\"}\n")
	f.Add("{\"v\":1}\n")
	f.Add("")
	f.Add("{\"v\":2}\n")
	f.Add("{\"v\":1,\"tenants\":[\"a\",\"a\"]}\n")
	f.Add("{\"v\":1,\"tenants\":[\"\"]}\n")
	f.Add("{\"v\":1}\n{\"t\":-5,\"op\":\"r\",\"k\":1}\n")
	f.Add("{\"v\":1}\n{\"t\":2000,\"op\":\"r\",\"k\":1}\n{\"t\":1000,\"op\":\"r\",\"k\":1}\n")
	f.Add("{\"v\":1}\n{\"t\":1,\"op\":\"x\",\"k\":1}\n")
	f.Add("{\"v\":1}\n{\"t\":1,\"tn\":\"ghost\",\"op\":\"r\",\"k\":1}\n")
	f.Add("{\"v\":1}\n{\"t\":1,\"op\":\"r\",\"k\":1,\"raw\":\"both\"}\n")
	f.Add("{\"v\":1}\n{\"t\":1,\"op\":\"r\",\"k\":-1}\n")
	f.Add("{\"v\":1}\n{\"t\":1,\"op\":\"r\"}\n")
	f.Add("{\"v\":1,\"wat\":true}\n")
	f.Add("not json\n")

	f.Fuzz(func(t *testing.T, s string) {
		trace, err := autonosql.ParseWorkloadTrace(strings.NewReader(s))
		if err != nil {
			return // rejected without panicking: fine
		}
		// Parser contract: an accepted trace re-encodes canonically — the
		// encoding parses back and re-encodes to the identical bytes — and the
		// parsed views survive the round trip.
		var first bytes.Buffer
		if err := trace.Encode(&first); err != nil {
			t.Fatalf("accepted trace failed to encode: %v\ninput:\n%s", err, s)
		}
		again, err := autonosql.ParseWorkloadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding rejected on re-parse: %v\nencoding:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("trace encoding is not canonical: encode-parse-encode changed the bytes")
		}
		if again.EventCount() != trace.EventCount() {
			t.Fatalf("event count changed across the round trip: %d -> %d",
				trace.EventCount(), again.EventCount())
		}
		if !reflect.DeepEqual(again.TenantNames(), trace.TenantNames()) {
			t.Fatalf("tenant names changed across the round trip: %v -> %v",
				trace.TenantNames(), again.TenantNames())
		}
		if again.Duration() != trace.Duration() {
			t.Fatalf("duration changed across the round trip: %v -> %v",
				trace.Duration(), again.Duration())
		}
	})
}

func FuzzParseFaultPlan(f *testing.F) {
	f.Add("crash:30s:60s")
	f.Add("partition:1m:45s:n=2,storm:10s:30s:sev=0.8")
	f.Add("slow:20s:40s:n=2:sev=0.5")
	f.Add("")
	f.Add("crash:30s:60s,,  ,partition:0s:0s")
	f.Add("meteor:1s:1s")
	f.Add("crash:1s:1s:n=-1:sev=2:wat=3")
	f.Add("crash:9999999h:1ns:n=2147483647")
	f.Add("crash:1s:1s:n=1:n=2")
	f.Add("crash:1s:1s:name=")

	f.Fuzz(func(t *testing.T, s string) {
		plan, err := autonosql.ParseFaultPlan(s)
		if err != nil {
			return // rejected without panicking: fine
		}
		// Parser contract: accepted plans always pass spec validation, and
		// the parsed plan has one event per non-blank element.
		spec := autonosql.DefaultScenarioSpec()
		spec.Faults = plan
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseFaultPlan(%q) accepted a plan that fails validation: %v", s, verr)
		}
		elems := 0
		for _, part := range strings.Split(s, ",") {
			if strings.TrimSpace(part) != "" {
				elems++
			}
		}
		if len(plan.Faults) != elems {
			t.Fatalf("ParseFaultPlan(%q) produced %d events for %d elements", s, len(plan.Faults), elems)
		}
		jsonRoundTrip(t, s, plan)
	})
}
