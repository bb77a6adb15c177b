// Command bench is the repository's benchmark of record: seven workloads over
// the simulator's public surfaces, each run in its own process, repeat-measured
// with the same seed, output-checked, and — in a separate traced run —
// attributed layer by layer. See README.md in this directory.
//
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload control_dense -seed 1 -trace 1
//	go run ./bench -compare old/results.json new/results.json
//	go run ./bench -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultsSchema identifies the results.json layout.
const resultsSchema = "autonosql-bench/v2"

// envBlock records where and how a result set was measured.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	// Comparable is false for a run at a scale other than 1: its numbers
	// describe a different amount of work and -compare refuses them.
	Comparable bool `json:"comparable"`
}

// resultsFile is the results.json document.
type resultsFile struct {
	Schema    string                     `json:"schema"`
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func newEnvBlock(cfg runConfig) envBlock {
	return envBlock{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Scale:      cfg.Scale,
		Traced:     cfg.Trace,
		Comparable: cfg.Scale == 1,
	}
}

// newWorkload builds the named workload.
func newWorkload(cfg runConfig) (runner, error) {
	switch cfg.Workload {
	case "steady_mixed":
		return &scenarioWorkload{cfg: cfg, spec: steadySpec}, nil
	case "steady_sharded":
		return &scenarioWorkload{cfg: cfg, spec: shardedSpec, plain: steadySpec}, nil
	case "write_quorum_faults":
		return &scenarioWorkload{cfg: cfg, spec: writeQuorumFaultsSpec}, nil
	case "control_dense":
		return &scenarioWorkload{cfg: cfg, spec: controlDenseSpec}, nil
	case "tenants_admission":
		return &scenarioWorkload{cfg: cfg, spec: tenantsAdmissionSpec}, nil
	case "suite_grid":
		return &suiteWorkload{cfg: cfg}, nil
	case "daemon_jobs":
		return &daemonWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
}

func writeResults(dir string, doc *resultsFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	path := filepath.Join(dir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsFile
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if doc.Schema != resultsSchema {
		return nil, fmt.Errorf("%s has schema %q, want %q", path, doc.Schema, resultsSchema)
	}
	return &doc, nil
}

// printResult prints every metric of one workload by name, with its unit and
// — for timed metrics — the spread of the in-run repeats it is the median of.
func printResult(w io.Writer, res *workloadResult, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: %d operations measured, %d attempted, %d failed, %d simulated ops each\n",
		res.Workload, res.Operations, res.Attempted, res.Failed, res.SimOps)
	fmt.Fprintf(w, "  sim_fingerprint_sha256 %s\n", res.SimFingerprintSHA256)
	row := func(name string, v metricValue) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", name, v.Value, v.Unit)
		if len(v.Raw) > 1 {
			s := summarize(v.Raw)
			fmt.Fprintf(w, " min %.6g  q1 %.6g  q3 %.6g  n %d", s.Min, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			row(d.Name, v)
		}
	}
	names := make([]string, 0, len(res.Extras))
	for name := range res.Extras {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row("("+name+")", res.Extras[name])
	}
	for _, r := range res.Spans {
		fmt.Fprintf(w, "  span %-14s n %-4d median %10.4f ms  self %10.4f ms\n", r.Name, r.N, r.MedianMs, r.SelfMs)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// lastLine is the one-line JSON object a single-workload run ends with.
func lastLine(res *workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = mv{Value: v.Value, Unit: v.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerDefs
	}
	return endToEndDefs
}

// runOne runs one workload in this process, prints it and writes its files.
func runOne(cfg runConfig, stdout io.Writer) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printResult(stdout, res, defsFor(cfg.Trace))
	doc := &resultsFile{Schema: resultsSchema, Env: newEnvBlock(cfg), Workloads: map[string]*workloadResult{res.Workload: res}}
	if err := writeResults(cfg.OutDir, doc); err != nil {
		return err
	}
	fmt.Fprintln(stdout, lastLine(res))
	return nil
}

// runAll runs every workload, each in a process of its own so that peak RSS,
// heap state and GC pacing belong to that workload alone, and merges their
// results.json files.
func runAll(cfg runConfig, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	merged := &resultsFile{Schema: resultsSchema, Env: newEnvBlock(cfg), Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, def := range workloadDefs {
		trace := "0"
		if cfg.Trace {
			trace = "1"
		}
		cmd := exec.Command(self,
			"-workload", def.Name,
			"-seed", fmt.Sprint(cfg.Seed),
			"-seconds", fmt.Sprint(cfg.Seconds),
			"-trace", trace,
			"-scale", fmt.Sprint(cfg.Scale),
			"-out", cfg.OutDir)
		cmd.Stdout = stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", def.Name, err)
		}
		doc, err := readResults(filepath.Join(cfg.OutDir, "results.json"))
		if err != nil {
			return fmt.Errorf("workload %s: %w", def.Name, err)
		}
		for name, res := range doc.Workloads {
			merged.Workloads[name] = res
			failed += res.Failed
		}
	}
	if err := writeResults(cfg.OutDir, merged); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "all %d workloads done, %d failed operations; results in %s\n",
		len(merged.Workloads), failed, filepath.Join(cfg.OutDir, "results.json"))
	return nil
}

// printList prints the catalogue.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "  %-20s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (every workload, tracing off):")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-20s %-6s %-6s bound %.2f  %s\n", d.Name, d.Unit, d.Better, d.Bound, d.Doc)
	}
	fmt.Fprintln(w, "\nper-layer metrics (-trace 1):")
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-32s %-6s %-6s %-8s %s; moves: %s\n", d.Name, d.Unit, d.Better, d.Source, d.Doc, d.Moves)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run, or all (see -list)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "scenario seed; every repeat of a workload uses the same one")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "host seconds to measure each workload for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run with per-layer metrics")
	fs.Float64Var(&cfg.Scale, "scale", 1, "multiply every virtual duration and the job count (results at a scale other than 1 are not comparable)")
	fs.StringVar(&cfg.OutDir, "out", filepath.Join(".bench_build", "out"), "directory for results.json, <workload>.spans.jsonl and <workload>.cpu.prof")
	list := fs.Bool("list", false, "print the workload and metric catalogue")
	compare := fs.Bool("compare", false, "compare two results.json files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printList(stdout)
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files: old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	cfg.Trace = *trace == 1
	if cfg.Scale <= 0 || cfg.Seconds < 0 {
		return errors.New("-scale must be positive and -seconds non-negative")
	}
	switch cfg.Workload {
	case "":
		return errors.New("no workload given: use -workload <name|all>, or -list")
	case "all":
		return runAll(cfg, stdout)
	}
	return runOne(cfg, stdout)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
