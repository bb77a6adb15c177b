// Command suiterunner expands a scenario grid — workload pattern × controller
// mode × cluster size × SLA tier × fault profile × tenant mix × replayed
// trace — into concrete
// variants with deterministic per-variant seeds, runs them concurrently
// across a bounded worker pool and prints the aggregated comparison tables.
// The full suite report can also be exported as CSV (one row per variant,
// plus an optional per-tenant CSV) or JSON (lossless, including the sampled
// time series).
//
// Usage examples:
//
//	suiterunner                                       # default 12-variant grid
//	suiterunner -patterns constant,diurnal,spike -controllers none,smart \
//	    -nodes 3,6 -sla-tiers tight,loose -duration 10m
//	suiterunner -controllers none,smart -faults none,crash,partition
//	suiterunner -controllers reactive,smart -tenant-mixes gold-bronze
//	suiterunner -tenants gold:diurnal:2000,bronze:constant:500 -tenants-csv tenants.csv
//	suiterunner -controllers none,reactive,smart -replay-trace run.trace.jsonl
//	suiterunner -record-trace traces/                 # one trace file per variant
//	suiterunner -csv sweep.csv -json sweep.json       # export the results
//	suiterunner -spill-dir results/                   # one JSON file per variant
//	suiterunner -list                                 # print the grid and exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"autonosql"
	"autonosql/internal/cli"
	"autonosql/internal/text"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("suiterunner", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 1, "base seed; per-variant seeds are derived from it")
		duration    = fs.Duration("duration", 5*time.Minute, "simulated duration per variant")
		patterns    = fs.String("patterns", "constant,diurnal,spike", "comma-separated load patterns to sweep")
		controllers = fs.String("controllers", "none,smart", "comma-separated controller modes to sweep")
		nodes       = fs.String("nodes", "3,6", "comma-separated initial cluster sizes to sweep")
		slaTiers    = fs.String("sla-tiers", "", "comma-separated SLA tiers to sweep (tight, default, loose); empty keeps the base SLA")
		faultAxis   = fs.String("faults", "", "comma-separated fault profiles to sweep (none, crash, partition, slow, storm),\nscaled to the run duration; empty keeps runs fault-free")
		mixAxis     = fs.String("tenant-mixes", "", "comma-separated tenant mixes to sweep (none, gold-bronze, three-tier);\nempty keeps the base tenants")
		tenantsCSV  = fs.String("tenants-csv", "", "write the per-tenant results as CSV to this file")
		repeats     = fs.Int("repeats", 1, "runs per grid cell with distinct derived seeds")
		baseOps     = fs.Float64("base", 2000, "base offered load (ops/s)")
		peakOps     = fs.Float64("peak", 4000, "peak offered load for non-constant patterns (ops/s)")
		nodeOps     = fs.Float64("node-ops", 2000, "per-node sustainable ops/s")
		maxNodes    = fs.Int("max-nodes", 12, "maximum cluster size reachable through scaling")
		parallel    = fs.Int("parallelism", 0, "max concurrently running variants (0 = GOMAXPROCS)")
		recordDir   = fs.String("record-trace", "", "directory to record every variant's arrival stream into\n(one <variant>.trace.jsonl file per variant)")
		replayTrace = fs.String("replay-trace", "", "comma-separated trace files replayed as a grid axis; every variant on a\ntrace faces those exact recorded arrivals instead of generated ones")
		csvPath     = fs.String("csv", "", "write the per-variant results as CSV to this file")
		jsonPath    = fs.String("json", "", "write the full suite report as JSON to this file")
		spillDir    = fs.String("spill-dir", "", "write each variant's full result to its own JSON file in this\ndirectory as it completes")
		list        = fs.Bool("list", false, "print the expanded variants and exit without running")
	)
	shared := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traceDir := shared.TraceOps

	base := autonosql.DefaultScenarioSpec()
	base.Seed = *seed
	base.Duration = *duration
	base.Cluster.NodeOpsPerSec = *nodeOps
	base.Cluster.MaxNodes = *maxNodes
	base.Workload.BaseOpsPerSec = *baseOps
	base.Workload.PeakOpsPerSec = *peakOps
	if err := shared.Apply(&base); err != nil {
		fmt.Fprintf(os.Stderr, "suiterunner: %v\n", err)
		return 2
	}

	grid, err := buildGrid(*patterns, *controllers, *nodes, *slaTiers, *faultAxis, *mixAxis, *duration, *repeats)
	if err != nil {
		fmt.Fprintf(os.Stderr, "suiterunner: %v\n", err)
		return 2
	}
	for _, path := range splitList(*replayTrace) {
		trace, err := autonosql.ReadWorkloadTraceFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suiterunner: %v\n", err)
			return 2
		}
		grid.Traces = append(grid.Traces, autonosql.NamedTrace{Name: traceName(path), Trace: trace})
	}

	suiteSpec := autonosql.SuiteSpec{
		Base:        base,
		Grid:        grid,
		Parallelism: *parallel,
	}
	// With -record-trace or -trace-ops the grid is expanded here instead of
	// inside NewSuite, so every variant can be given a Configure hook that
	// arms trace recording and holds the scenario until its result arrives.
	files := &variantFiles{traceDir: *recordDir, spanDir: *traceDir}
	if *recordDir != "" || *traceDir != "" {
		expanded := autonosql.ExpandGrid(base, grid)
		files.configure(expanded)
		suiteSpec = autonosql.SuiteSpec{Variants: expanded, Parallelism: *parallel}
	}
	suite, err := autonosql.NewSuite(suiteSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "suiterunner: %v\n", err)
		return 2
	}

	variants := suite.Variants()
	if *list {
		for _, v := range variants {
			fmt.Fprintf(out, "%-60s seed=%d\n", v.Name, v.Spec.Seed)
		}
		return 0
	}

	// Trace and span file names must be collision-free before anything runs:
	// two variant names that sanitize to the same file would silently
	// overwrite each other's output.
	if files.held != nil {
		if err := detectTraceCollisions(variants); err != nil {
			fmt.Fprintf(os.Stderr, "suiterunner: %v\n", err)
			return 2
		}
	}

	fmt.Fprintf(out, "autonosql suite: %d variants, %v simulated each\n\n", len(variants), *duration)
	started := time.Now()

	// The SuiteAggregator folds each result in as it completes, retaining
	// O(parallelism) reports, and streams the exports straight to their
	// files. A mid-suite failure keeps the completed variants: tables and
	// exports cover the completed prefix and the failure is reported
	// alongside.
	var (
		agg    *autonosql.SuiteAggregator
		runErr error
	)
	exportErr := cli.WriteFiles([]string{*csvPath, *jsonPath, *tenantsCSV}, func(ws []io.Writer) error {
		agg = autonosql.NewSuiteAggregator(autonosql.SuiteAggregatorOptions{
			CSV: ws[0], JSON: ws[1], TenantsCSV: ws[2], SpillDir: *spillDir,
		})
		_, runErr = suite.RunStream(files.consume(agg.Consume()))
		return agg.Close()
	})
	if agg == nil {
		// An export file could not be created; nothing ran.
		fmt.Fprintf(os.Stderr, "suiterunner: %v\n", exportErr)
		return 1
	}
	if runErr == nil {
		runErr = exportErr
	}

	fmt.Fprint(out, agg.String())
	fmt.Fprintf(out, "\ncompleted in %v\n", time.Since(started).Round(time.Millisecond))
	if *recordDir != "" {
		fmt.Fprintf(out, "recorded %d variant traces to %s\n", files.written, *recordDir)
	}
	if *traceDir != "" {
		fmt.Fprintf(out, "wrote %d variant span files to %s\n", files.written, *traceDir)
	}

	if cheapest := agg.CheapestCompliant(); cheapest != nil {
		fmt.Fprintf(out, "cheapest fully compliant variant: %s ($%.2f)\n", cheapest.Name, cheapest.Report.Cost.Total)
	}

	if *csvPath != "" {
		fmt.Fprintf(out, "wrote CSV results to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		fmt.Fprintf(out, "wrote JSON report to %s\n", *jsonPath)
	}
	if *tenantsCSV != "" {
		fmt.Fprintf(out, "wrote per-tenant CSV results to %s\n", *tenantsCSV)
	}
	if *spillDir != "" {
		fmt.Fprintf(out, "spilled per-variant results to %s\n", *spillDir)
	}

	if runErr != nil {
		failures := agg.Failures()
		for _, e := range failures {
			fmt.Fprintf(os.Stderr, "suiterunner: %v\n", e)
		}
		fmt.Fprintf(os.Stderr, "suiterunner: %v (results above cover the %d completed variants)\n",
			runErr, agg.Added()-len(failures))
		return 1
	}
	return 0
}

// variantFiles writes each variant's recorded trace (into traceDir) and op
// trace spans (into spanDir) as its result is delivered, then drops the
// scenario. RunStream delivers in variant order and keeps at most
// Parallelism variants claimed but undelivered, so that many scenarios are
// held at a time however large the grid.
type variantFiles struct {
	traceDir, spanDir string
	held              []*autonosql.Scenario // by variant index, until delivery
	delivered         int
	written           int // variants whose files were written
}

// configure gives every variant a hook that holds its scenario, armed for
// trace recording when traces are wanted.
func (f *variantFiles) configure(variants []autonosql.Variant) {
	f.held = make([]*autonosql.Scenario, len(variants))
	for i := range variants {
		variants[i].Configure = func(s *autonosql.Scenario) error {
			f.held[i] = s
			if f.traceDir != "" {
				return s.RecordTrace()
			}
			return nil
		}
	}
}

// consume wraps a RunStream consumer: next sees every result first, then a
// completed variant's files are written and its scenario released.
func (f *variantFiles) consume(next func(autonosql.VariantResult) error) func(autonosql.VariantResult) error {
	if f.held == nil {
		return next
	}
	return func(v autonosql.VariantResult) error {
		s := f.held[f.delivered]
		f.held[f.delivered] = nil
		f.delivered++
		if err := next(v); err != nil || v.Err != nil {
			return err
		}
		if f.traceDir != "" {
			trace, err := s.RecordedTrace()
			if err != nil {
				return fmt.Errorf("variant %q: %w", v.Name, err)
			}
			if err := writeIn(f.traceDir, traceFileName(v.Name), trace.Encode); err != nil {
				return err
			}
		}
		if f.spanDir != "" {
			if err := writeIn(f.spanDir, spanFileName(v.Name), s.WriteSpans); err != nil {
				return fmt.Errorf("variant %q: %w", v.Name, err)
			}
		}
		f.written++
		return nil
	}
}

// writeIn writes one file into dir, making dir first if it does not exist.
func writeIn(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return cli.WriteFile(filepath.Join(dir, name), write)
}

// buildGrid parses the axis flags into a Grid.
func buildGrid(patterns, controllers, nodes, slaTiers, faults, tenantMixes string, duration time.Duration, repeats int) (autonosql.Grid, error) {
	var grid autonosql.Grid
	for _, p := range splitList(patterns) {
		grid.Patterns = append(grid.Patterns, autonosql.LoadPattern(p))
	}
	for _, c := range splitList(controllers) {
		grid.Controllers = append(grid.Controllers, autonosql.ControllerMode(c))
	}
	for _, n := range splitList(nodes) {
		size, err := strconv.Atoi(n)
		if err != nil || size <= 0 {
			return autonosql.Grid{}, fmt.Errorf("invalid cluster size %q", n)
		}
		grid.ClusterSizes = append(grid.ClusterSizes, size)
	}
	for _, name := range splitList(slaTiers) {
		tier, ok := autonosql.LookupSLATier(name)
		if !ok {
			return autonosql.Grid{}, fmt.Errorf("unknown SLA tier %q (available: tight, default, loose)", name)
		}
		grid.SLATiers = append(grid.SLATiers, tier)
	}
	for _, name := range splitList(faults) {
		profile, ok := autonosql.LookupFaultProfile(name, duration)
		if !ok {
			return autonosql.Grid{}, fmt.Errorf("unknown fault profile %q (available: none, crash, partition, slow, storm)", name)
		}
		grid.Faults = append(grid.Faults, profile)
	}
	for _, name := range splitList(tenantMixes) {
		mix, ok := autonosql.LookupTenantMix(name)
		if !ok {
			return autonosql.Grid{}, fmt.Errorf("unknown tenant mix %q (available: none, gold-bronze, three-tier)", name)
		}
		grid.TenantMixes = append(grid.TenantMixes, mix)
	}
	grid.Repeats = repeats
	return grid, nil
}

// traceName derives the grid-axis name of a replayed trace from its file
// name, dropping the .jsonl / .trace.jsonl suffixes.
func traceName(path string) string {
	name := filepath.Base(path)
	name = strings.TrimSuffix(name, ".jsonl")
	name = strings.TrimSuffix(name, ".trace")
	return name
}

// detectTraceCollisions errors when two variant names sanitize to the same
// trace file name, so -record-trace refuses to run rather than silently
// overwriting one variant's trace with another's.
func detectTraceCollisions(variants []autonosql.Variant) error {
	byFile := make(map[string]string, len(variants))
	for _, v := range variants {
		name := traceFileName(v.Name)
		if prev, dup := byFile[name]; dup {
			return fmt.Errorf("variants %q and %q both record to %s; rename the variants or shrink the grid",
				prev, v.Name, name)
		}
		byFile[name] = v.Name
	}
	return nil
}

// traceFileName maps a variant name (which contains spaces and '=') onto a
// filesystem-safe trace file name.
func traceFileName(variant string) string {
	return text.SafeFileName(variant) + ".trace.jsonl"
}

// spanFileName is traceFileName's sibling for -trace-ops span exports.
func spanFileName(variant string) string {
	return text.SafeFileName(variant) + ".spans.jsonl"
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
