package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"autonosql"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the benchmark's spreads are judged with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 1, 2, 3, 5, 8, 13, 21, 34}, 1.5, 5, 17},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.v), c.q2) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, median(c.v), q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("single value: quartiles = %v, %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must summarise to 0")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: percentile %v ok=%v, want %v ok=%v", c.n, p, ok, c.p, c.ok)
		}
		if ok && float64(c.n)-v < 10-1e-9 {
			t.Errorf("n=%d: p%v = %v leaves fewer than ten samples beyond it", c.n, p, v)
		}
	}
	if got := percentile(ramp(100), 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "d", Start: 62, End: 68},
		{ID: 6, Parent: 1, Name: "late", Start: 95, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 45, 2: 20, 3: 30, 4: 4, 5: 6, 6: 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := spanTable(spans)
	if len(rows) != 6 || rows[0].Name != "op" || rows[3].Name != "c" || rows[3].N != 1 || !near(rows[3].MedianMs, 10e-6) || !near(rows[3].SelfMs, 4e-6) {
		t.Errorf("span table %+v", rows)
	}

	var tr *tracer
	if id := tr.begin(1, 0, "x"); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr.end(0)
	live := newTracer()
	root := live.begin(7, 0, "op")
	kid := live.begin(7, root, "run")
	live.end(kid)
	live.end(root)
	got := live.all()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Trace != 7 || got[1].End < got[1].Start || got[0].End < got[1].End {
		t.Errorf("recorded spans %+v", got)
	}
	var buf bytes.Buffer
	if err := writeSpansJSONL(&buf, got); err != nil || strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("JSONL flush: %v %q", err, buf.String())
	}
}

func TestJudgeVerdicts(t *testing.T) {
	tight := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre * 0.995, centre, centre * 1.005, centre * 1.01}
	}
	noisy := func(centre float64) []float64 {
		return []float64{centre * 0.7, centre * 0.85, centre, centre * 1.15, centre * 1.3}
	}
	cases := []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"same", tight(100), tight(100), "lower", 0.10, verdictUnchanged},
		{"within bound", tight(100), tight(105), "lower", 0.10, verdictUnchanged},
		{"worse beyond bound", tight(100), tight(115), "lower", 0.10, verdictWorse},
		{"improved beyond own spread", tight(100), tight(90), "lower", 0.10, verdictImproved},
		{"higher is better: drop is worse", tight(100), tight(80), "higher", 0.10, verdictWorse},
		{"higher is better: rise improves", tight(100), tight(120), "higher", 0.10, verdictImproved},
		{"noise wider than bound", noisy(100), noisy(104), "lower", 0.10, verdictUnresolved},
		{"noisy but every run better", noisy(100), noisy(40), "lower", 0.10, verdictImproved},
		{"noisy but every run worse", noisy(100), noisy(250), "lower", 0.10, verdictWorse},
		{"single readings within bound", []float64{50}, []float64{52}, "lower", 0.10, verdictUnchanged},
		{"single readings worse", []float64{50}, []float64{60}, "lower", 0.10, verdictWorse},
		{"single readings improved", []float64{50}, []float64{40}, "lower", 0.10, verdictImproved},
	}
	for _, c := range cases {
		if got, _ := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsNonZeroOnlyOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, failed int) string {
		cfg := runConfig{Seed: 1, Seconds: 10, Scale: 1}
		res := &workloadResult{Workload: "steady_mixed", Attempted: 10, Failed: failed, SimFingerprintSHA256: "abc",
			Metrics: map[string]metricValue{
				"wall_ns_per_simop": fromSamples("ns", wall),
				"peak_rss_mb":       {Value: 20, Unit: "MB"},
			}}
		doc := &resultsFile{Schema: resultsSchema, Env: newEnvBlock(cfg), Workloads: map[string]*workloadResult{res.Workload: res}}
		sub := filepath.Join(dir, name)
		if err := writeResults(sub, doc); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(sub, "results.json")
	}
	base := write("base", []float64{99, 100, 100, 101, 102}, 0)
	same := write("same", []float64{100, 101, 101, 102, 103}, 0)
	slow := write("slow", []float64{150, 151, 152, 153, 154}, 0)
	fast := write("fast", []float64{60, 61, 62, 63, 64}, 0)
	flaky := write("flaky", []float64{99, 100, 100, 101, 102}, 1)

	var out bytes.Buffer
	if err := compareFiles(base, same, &out); err != nil {
		t.Errorf("unchanged comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictUnchanged) || !strings.Contains(out.String(), "new/old") {
		t.Errorf("comparison output lacks the verdict or the ratio's base:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(base, fast, &out); err != nil || !strings.Contains(out.String(), verdictImproved) {
		t.Errorf("improvement: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(base, slow, &out); !errors.Is(err, errRegression) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slowdown: err=%v\n%s", err, out.String())
	}
	if err := compareFiles(base, flaky, &out); !errors.Is(err, errRegression) {
		t.Errorf("a higher failed share must be a regression, got %v", err)
	}

	scaled := &resultsFile{Schema: resultsSchema, Env: newEnvBlock(runConfig{Scale: 0.5}), Workloads: map[string]*workloadResult{}}
	if err := writeResults(filepath.Join(dir, "scaled"), scaled); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(base, filepath.Join(dir, "scaled", "results.json"), &out); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("a scaled result set must be refused, got %v", err)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var doc benchmarkJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q", kind, n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: direction %q", kind, n, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadDefs) || len(workloadDefs) != 7 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue, want 7", len(doc.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		check("workload", d.Name, "", "")
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", d.Name)
		}
		if got := doc.Workloads[i]; got.Name != d.Name || got.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, d)
		}
		if _, err := newWorkload(runConfig{Workload: d.Name, Scale: 1}); err != nil {
			t.Errorf("catalogue workload %s cannot be built: %v", d.Name, err)
		}
	}

	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(doc.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, d := range endToEndDefs {
		check("end-to-end", d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, d)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(doc.PerLayer) != len(perLayerDefs) || len(perLayerDefs) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue (at most 128)", len(doc.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		check("per-layer", d.Name, d.Unit, d.Better)
		if d.Bound != 0 || d.Source == "" || d.Doc == "" || d.Moves == "" {
			t.Errorf("%s: a per-layer metric has no bound and states its source, meaning and what it should move", d.Name)
		}
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, d)
		}
	}

	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
}

func TestFoldTopByPackage(t *testing.T) {
	out := []byte(`File: bench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     500ms 25.00% 25.00%      900ms 45.00%  autonosql/internal/sim.(*Engine).Step
     300ms 15.00% 40.00%      300ms 15.00%  math.archExp
     200ms 10.00% 50.00%      200ms 10.00%  slices.insertionSortOrdered[go.shape.float64] (inline)
     200ms 10.00% 60.00%      600ms 30.00%  runtime.mallocgc
     100ms  5.00% 65.00%      200ms 10.00%  runtime.gcAssistAlloc
     100ms  5.00% 70.00%      300ms 15.00%  runtime.gcBgMarkWorker
     400ms 20.00% 90.00%      400ms 20.00%  autonosql/internal/store.(*Store).Write.func1
     100ms  5.00% 95.00%      100ms  5.00%  autonosql.(*Scenario).onSample
     100ms  5.00%   100%      100ms  5.00%  net/http.(*conn).serve
`)
	rows := parseTop(out)
	if len(rows) != 9 {
		t.Fatalf("parsed %d rows, want 9", len(rows))
	}
	got := foldTop(rows)
	want := map[string]float64{
		"pkgshare.sim": 0.25, "pkgshare.math": 0.15, "pkgshare.sort": 0.10, "pkgshare.store": 0.20,
		"pkgshare.root": 0.05, "pkgshare.serve": 0.05,
		"pkgshare.runtime_gc": 0.25, "pkgshare.runtime_malloc": 0.20,
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected share %s = %v", k, got[k])
		}
	}
	for fn, pkg := range map[string]string{
		"autonosql/internal/sim.(*Engine).Step":         "autonosql/internal/sim",
		"autonosql.(*Scenario).Run":                     "autonosql",
		"slices.pdqsortOrdered[go.shape.float64]":       "slices",
		"math/rand.(*Rand).Float64":                     "math/rand",
		"runtime.mallocgc":                              "runtime",
		"autonosql/internal/store.(*Store).Write.func1": "autonosql/internal/store",
	} {
		if got := funcPackage(fn); got != pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, pkg)
		}
	}
}

// smokeConfig is a run small enough for the unit-test step: every virtual
// duration at 2%, the minimum number of operations, every check on.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 1, Seconds: 0, Trace: trace, Scale: 0.02, OutDir: t.TempDir()}
}

// TestSmoke runs all seven workloads, untraced and traced, and checks that no
// operation fails and that each run reports exactly its declared metrics.
func TestSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, def.Name, trace)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
			}
			if res.Failed != 0 || len(res.Failures) != 0 {
				t.Errorf("%s trace=%v: %d failed operations: %v", def.Name, trace, res.Failed, res.Failures)
			}
			if res.SimOps == 0 || len(res.SimFingerprintSHA256) != 64 {
				t.Errorf("%s trace=%v: sim ops %d, digest %q", def.Name, trace, res.SimOps, res.SimFingerprintSHA256)
			}
			defs := defsFor(trace)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", def.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is missing", def.Name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", def.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", def.Name, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lastLine(res)), &line); err != nil || !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: last line %s (%v)", def.Name, trace, lastLine(res), err)
			}
			if trace {
				for _, f := range []string{def.Name + ".spans.jsonl", def.Name + ".cpu.prof"} {
					if st, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: traced run left no %s (%v)", def.Name, f, err)
					}
				}
			}
		}
	}
}

// The same seed must give the same simulated statistics, and another seed
// others; steady_mixed and steady_sharded simulate the identical system.
func TestDigestFollowsSeedOnly(t *testing.T) {
	digest := func(workload string, seed int64) string {
		cfg := smokeConfig(t, workload, false)
		cfg.Seed = seed
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimFingerprintSHA256
	}
	a, b, c := digest("steady_mixed", 1), digest("steady_mixed", 1), digest("steady_mixed", 2)
	if a != b || a == c {
		t.Errorf("digests seed 1: %.12s, seed 1 again: %.12s, seed 2: %.12s", a, b, c)
	}
	if s := digest("steady_sharded", 1); s != a {
		t.Errorf("sharded digest %.12s differs from plain %.12s", s, a)
	}
}

// Each output check must turn a wrong expectation into a failed operation.
func TestWrongExpectationFailsTheOperation(t *testing.T) {
	t.Run("digest differs from the first repeat", func(t *testing.T) {
		cfg := smokeConfig(t, "steady_mixed", false)
		w, _ := newWorkload(cfg)
		env := &runEnv{cfg: cfg, reference: "not the digest"}
		if _, err := execOp(w, env, 0, false); err == nil || !strings.Contains(err.Error(), "differs from the first operation") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("sharded differs from plain", func(t *testing.T) {
		cfg := smokeConfig(t, "steady_sharded", false)
		w := &scenarioWorkload{cfg: cfg, spec: shardedSpec, plain: func(seed int64, z sizing) autonosql.ScenarioSpec {
			return steadySpec(seed+1, z) // a plain run of another system
		}}
		env := &runEnv{cfg: cfg}
		samples, attempted, failures := measureOps(w, env)
		sharded := 0
		for _, s := range samples {
			if !s.Aux {
				sharded++
			}
		}
		if sharded != 0 || len(failures) == 0 || attempted <= len(samples) {
			t.Errorf("%d sharded operations passed against a different plain run; failures %v", sharded, failures)
		}
	})
	t.Run("streamed export differs from in-memory", func(t *testing.T) {
		cfg := smokeConfig(t, "suite_grid", false)
		w := &suiteWorkload{cfg: cfg}
		env := &runEnv{cfg: cfg}
		if err := w.prepare(env); err != nil {
			t.Fatal(err)
		}
		if _, err := execOp(w, env, 0, false); err != nil {
			t.Fatalf("untouched expectation: %v", err)
		}
		w.refCSV = append([]byte("x"), w.refCSV...)
		if _, err := execOp(w, env, 1, false); err == nil || !strings.Contains(err.Error(), "streamed CSV") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("daemon report differs from in-process", func(t *testing.T) {
		cfg := smokeConfig(t, "daemon_jobs", false)
		w := &daemonWorkload{cfg: cfg}
		env := &runEnv{cfg: cfg}
		if err := w.prepare(env); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := w.close(); err != nil {
				t.Error(err)
			}
		}()
		if _, err := execOp(w, env, 0, false); err != nil {
			t.Fatalf("untouched expectation: %v", err)
		}
		w.inprocRep.Reads++
		if _, err := execOp(w, env, 1, false); err == nil || !strings.Contains(err.Error(), "in-process run") {
			t.Errorf("got %v", err)
		}
	})
}

func TestCommandLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("-list does not name workload %s", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("-list does not name metric %s", d.Name)
		}
	}
	for _, bad := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", "steady_mixed", "-trace", "2"},
		{"-workload", "steady_mixed", "-scale", "0"}, {"-compare", "one.json"}, {"-workload", "steady_mixed", "extra"},
	} {
		if err := run(bad, &out); err == nil {
			t.Errorf("arguments %v were accepted", bad)
		}
	}
	// The driver's spelling: double dashes, and -trace with a value.
	dir := t.TempDir()
	out.Reset()
	err := run([]string{"--workload", "steady_mixed", "--seed", "5", "--seconds", "0", "--trace", "0", "--scale", "0.02", "--out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
		t.Errorf("last line %q", last)
	}
	doc, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env.Seed != 5 || doc.Env.Comparable || doc.Env.GOMAXPROCS < 1 || doc.Env.NProc < 1 || doc.Env.GoVersion == "" {
		t.Errorf("env block %+v", doc.Env)
	}
	res := doc.Workloads["steady_mixed"]
	if res == nil || len(res.Metrics["wall_ns_per_simop"].Raw) != res.Operations || res.Operations < 5 {
		t.Errorf("results.json lacks the per-repeat raw values: %+v", res)
	}
}
