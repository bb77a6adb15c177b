package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autonosql"
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

func TestStreamAggExportsMatchDefaultPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	common := []string{
		"-duration", "20s", "-patterns", "constant", "-controllers", "none,smart",
		"-nodes", "2", "-base", "600", "-peak", "1200",
	}
	defDir, strDir := t.TempDir(), t.TempDir()

	args := append([]string{}, common...)
	args = append(args, "-csv", filepath.Join(defDir, "r.csv"), "-json", filepath.Join(defDir, "r.json"))
	code, defOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("default run exited %d:\n%s", code, defOut)
	}

	args = append([]string{}, common...)
	args = append(args, "-stream-agg", "-spill-dir", filepath.Join(strDir, "spill"),
		"-csv", filepath.Join(strDir, "r.csv"), "-json", filepath.Join(strDir, "r.json"))
	code, out := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("streamed run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "cheapest fully compliant variant") {
		t.Errorf("streamed run output missing the cheapest-compliant line:\n%s", out)
	}
	// Tables and winner come from one aggregator in both modes: up to the
	// wall-clock line the two stdouts are identical, and so is the winner.
	for _, part := range []func(string) string{tablesOf, cheapestLineOf} {
		if got, want := part(out), part(defOut); got != want || want == "" {
			t.Errorf("streamed stdout differs from the default path's:\n--- streamed\n%s\n--- default\n%s", got, want)
		}
	}

	for _, name := range []string{"r.csv", "r.json"} {
		want, err := os.ReadFile(filepath.Join(defDir, name))
		if err != nil {
			t.Fatalf("reading default %s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(strDir, name))
		if err != nil {
			t.Fatalf("reading streamed %s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("streamed %s differs from the default path's export", name)
		}
	}
	spilled, err := os.ReadDir(filepath.Join(strDir, "spill"))
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	if len(spilled) != 2 {
		t.Errorf("spilled %d files, want one per variant (2)", len(spilled))
	}
}

// tablesOf returns a run's stdout up to the wall-clock "completed in" line:
// the suite header and every comparison table.
func tablesOf(stdout string) string {
	tables, _, _ := strings.Cut(stdout, "\ncompleted in ")
	return tables
}

// cheapestLineOf returns the "cheapest fully compliant variant" line.
func cheapestLineOf(stdout string) string {
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "cheapest fully compliant variant") {
			return line
		}
	}
	return ""
}

// TestExportCreateFailureRunsNothing pins the fail-fast export set-up: when a
// later export file cannot be created the run exits 1 before any variant
// runs (the files already created are closed by cli.WriteFiles, which its
// own test pins).
func TestExportCreateFailureRunsNothing(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range [][]string{nil, {"-stream-agg"}} {
		args := append([]string{"-csv", filepath.Join(dir, "r.csv"), "-json", filepath.Join(dir, "missing", "r.json")}, mode...)
		code, out := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%v: exited %d, want 1", args, code)
		}
		if strings.Contains(out, "suite comparison") {
			t.Errorf("%v: the suite ran although an export could not be created:\n%s", args, out)
		}
	}
}
