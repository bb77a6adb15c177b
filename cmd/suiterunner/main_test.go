package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autonosql"
	"autonosql/internal/cli"
)

func TestDetectTraceCollisions(t *testing.T) {
	spec := autonosql.DefaultScenarioSpec()
	ok := []autonosql.Variant{
		{Name: "pattern=constant ctl=none", Spec: spec},
		{Name: "pattern=constant ctl=smart", Spec: spec},
	}
	if err := detectTraceCollisions(ok); err != nil {
		t.Fatalf("distinct file names rejected: %v", err)
	}
	// Distinct variant names, identical after sanitization: ' ' and '='
	// both map to '_', so "trace=a b" and "trace=a=b" collide.
	colliding := []autonosql.Variant{
		{Name: "trace=a b", Spec: spec},
		{Name: "trace=a=b", Spec: spec},
	}
	err := detectTraceCollisions(colliding)
	if err == nil {
		t.Fatal("colliding trace file names accepted; traces would silently overwrite")
	}
	if !strings.Contains(err.Error(), "trace=a b") || !strings.Contains(err.Error(), "trace=a=b") {
		t.Errorf("collision error %q does not name both variants", err)
	}
}

// runCLI drives run() with output captured to a temp file.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatalf("temp output: %v", err)
	}
	defer out.Close()
	code := run(args, out)
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatalf("reading output: %v", err)
	}
	return code, string(b)
}

// TestCLIExportsMatchSuiteRun pins that the CLI's streamed CSV and JSON
// exports carry the same bytes as Suite.Run plus SuiteReport.WriteCSV and
// WriteJSON over the same grid, with a spill file per variant beside them.
func TestCLIExportsMatchSuiteRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	code, out := runCLI(t, "-duration", "20s", "-patterns", "constant", "-controllers", "none,smart",
		"-nodes", "2", "-base", "600", "-peak", "1200", "-spill-dir", filepath.Join(dir, "spill"),
		"-csv", filepath.Join(dir, "r.csv"), "-json", filepath.Join(dir, "r.json"))
	if code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "cheapest fully compliant variant") {
		t.Errorf("output missing the cheapest-compliant line:\n%s", out)
	}

	// The suite the flags above build, run in memory.
	suite, err := autonosql.NewSuite(testSuiteSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	report, err := suite.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(io.Writer) error{"r.csv": report.WriteCSV, "r.json": report.WriteJSON} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("CLI %s differs from the in-memory suite report's export", name)
		}
	}
	spilled, err := os.ReadDir(filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	if len(spilled) != 2 {
		t.Errorf("spilled %d files, want one per variant (2)", len(spilled))
	}
}

// testSuiteSpec is the suite the test command lines build; sharedArgs are
// the shared scenario flags a command line adds.
func testSuiteSpec(t *testing.T, sharedArgs ...string) autonosql.SuiteSpec {
	t.Helper()
	base := autonosql.DefaultScenarioSpec()
	base.Seed, base.Duration = 1, 20*time.Second
	base.Cluster.NodeOpsPerSec, base.Cluster.MaxNodes = 2000, 12
	base.Workload.BaseOpsPerSec, base.Workload.PeakOpsPerSec = 600, 1200
	fs := flag.NewFlagSet("suiterunner", flag.ContinueOnError)
	shared := cli.Register(fs)
	if err := fs.Parse(sharedArgs); err != nil {
		t.Fatal(err)
	}
	if err := shared.Apply(&base); err != nil {
		t.Fatal(err)
	}
	grid, err := buildGrid("constant", "none,smart", "2", "", "", "", base.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	return autonosql.SuiteSpec{Base: base, Grid: grid}
}

// TestVariantFilesMatchDirectRuns pins the -record-trace and -trace-ops
// files: each holds the bytes a direct run of its variant records, and
// while the suite runs no more scenarios are held than it runs at once.
func TestVariantFilesMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	traces, spans := filepath.Join(dir, "traces"), filepath.Join(dir, "spans")
	code, out := runCLI(t, "-duration", "20s", "-patterns", "constant", "-controllers", "none,smart",
		"-nodes", "2", "-base", "600", "-peak", "1200", "-parallelism", "2",
		"-record-trace", traces, "-trace-ops", spans, "-trace-every", "7")
	if code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "recorded 2 variant traces") || !strings.Contains(out, "wrote 2 variant span files") {
		t.Errorf("output does not report both files of both variants:\n%s", out)
	}

	spec := testSuiteSpec(t, "-trace-ops", spans, "-trace-every", "7")
	for _, v := range autonosql.ExpandGrid(spec.Base, spec.Grid) {
		sc, err := autonosql.NewScenario(v.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.RecordTrace(); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
		trace, err := sc.RecordedTrace()
		if err != nil {
			t.Fatal(err)
		}
		var wantTrace, wantSpans bytes.Buffer
		if err := trace.Encode(&wantTrace); err != nil {
			t.Fatal(err)
		}
		if err := sc.WriteSpans(&wantSpans); err != nil {
			t.Fatal(err)
		}
		for path, want := range map[string][]byte{
			filepath.Join(traces, traceFileName(v.Name)): wantTrace.Bytes(),
			filepath.Join(spans, spanFileName(v.Name)):   wantSpans.Bytes(),
		} {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Errorf("%s: %d bytes, want the %d of a direct run", path, len(got), len(want))
			}
		}
	}

	// The held scenarios, counted at each delivery over a wider grid: every
	// configured scenario is held until its own delivery releases it.
	spec.Grid.ClusterSizes = []int{2, 3, 4}
	spec.Parallelism = 2
	files := &variantFiles{traceDir: t.TempDir()}
	variants := autonosql.ExpandGrid(spec.Base, spec.Grid)
	files.configure(variants)
	var configured atomic.Int64
	for i := range variants {
		hold := variants[i].Configure
		variants[i].Configure = func(s *autonosql.Scenario) error {
			configured.Add(1)
			return hold(s)
		}
	}
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{Variants: variants, Parallelism: spec.Parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := suite.RunStream(files.consume(func(autonosql.VariantResult) error {
		if held := int(configured.Load()) - files.delivered; held > spec.Parallelism {
			t.Errorf("delivery %d: %d scenarios held, want at most %d", files.delivered, held, spec.Parallelism)
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for i, s := range files.held {
		if s != nil {
			t.Errorf("variant %d's scenario is still held after the suite", i)
		}
	}
	if files.written != len(variants) {
		t.Errorf("wrote the files of %d variants, want %d", files.written, len(variants))
	}
}

// TestExportCreateFailureRunsNothing pins the fail-fast export set-up: when a
// later export file cannot be created the run exits 1 before any variant
// runs (the files already created are closed by cli.WriteFiles, which its
// own test pins).
func TestExportCreateFailureRunsNothing(t *testing.T) {
	dir := t.TempDir()
	code, out := runCLI(t, "-csv", filepath.Join(dir, "r.csv"), "-json", filepath.Join(dir, "missing", "r.json"))
	if code != 1 {
		t.Errorf("exited %d, want 1", code)
	}
	if strings.Contains(out, "suite comparison") {
		t.Errorf("the suite ran although an export could not be created:\n%s", out)
	}
}
