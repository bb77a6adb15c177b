package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	base := autonosql.DefaultScenarioSpec()
	base.Seed, base.Duration = 1, 20*time.Second
	base.Cluster.NodeOpsPerSec, base.Cluster.MaxNodes = 2000, 12
	base.Workload.BaseOpsPerSec, base.Workload.PeakOpsPerSec = 600, 1200
	fs := flag.NewFlagSet("suiterunner", flag.ContinueOnError)
	shared := cli.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := shared.Apply(&base); err != nil {
		t.Fatal(err)
	}
	grid, err := buildGrid("constant", "none,smart", "2", "", "", "", base.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{Base: base, Grid: grid})
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
