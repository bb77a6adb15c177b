// Command nosqlsim runs a single simulated eventually-consistent cluster
// scenario and prints the resulting report: ground-truth inconsistency-window
// percentiles, client latency, SLA compliance, cost and (optionally) ASCII
// timelines of the recorded series.
//
// Usage examples:
//
//	nosqlsim -nodes 3 -rf 3 -write-cl ONE -ops 3000 -duration 5m -controller none -plot window_p95_ms
//	nosqlsim -controller smart -pattern diurnal -ops 1000 -peak 3000 -node-ops 2000 -max-nodes 12 \
//	    -duration 20m -decisions -plot offered_ops_per_sec,cluster_size,window_p95_ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autonosql"
	"autonosql/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("nosqlsim", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "random seed")
		duration   = fs.Duration("duration", 5*time.Minute, "simulated duration")
		nodes      = fs.Int("nodes", 3, "initial cluster size")
		maxNodes   = fs.Int("max-nodes", 16, "maximum cluster size")
		nodeOps    = fs.Float64("node-ops", 5000, "per-node sustainable ops/s")
		rf         = fs.Int("rf", 3, "replication factor")
		readCL     = fs.String("read-cl", "ONE", "read consistency level (ONE, TWO, QUORUM, ALL)")
		writeCL    = fs.String("write-cl", "ONE", "write consistency level (ONE, TWO, QUORUM, ALL)")
		ops        = fs.Float64("ops", 3000, "offered load in ops/s (base rate)")
		peak       = fs.Float64("peak", 0, "peak ops/s for step/diurnal/spike patterns")
		pattern    = fs.String("pattern", "constant", "load pattern: constant, step, diurnal, spike, diurnal+spike")
		readFrac   = fs.Float64("read-fraction", 0.5, "fraction of operations that are reads")
		keys       = fs.Int("keys", 10000, "keyspace size")
		noisy      = fs.Bool("noisy-neighbour", false, "enable multi-tenant background load")
		controller = fs.String("controller", "none", "controller: none, reactive, smart")
		predictive = fs.Bool("predictive", true, "enable predictive scaling (smart controller)")
		windowSLA  = fs.Duration("sla-window", 250*time.Millisecond, "SLA bound on the p95 inconsistency window")
		probes     = fs.Float64("probe-rate", 1, "active read-after-write probes per second (0 disables)")
		plot       = fs.String("plot", "", "comma-separated report series to plot (e.g. window_p95_ms,cluster_size)")
		decisions  = fs.Bool("decisions", false, "print the controller decision log")
		recordPath = fs.String("record-trace", "", "record the run's arrival stream to the given JSON-lines trace file")
		replayPath = fs.String("replay-trace", "", "replay arrivals from the given trace file instead of generating them\n(the trace's tenants must match -tenants)")
		scaleTrace = fs.Float64("scale-trace", 1, "multiply every replayed arrival time by this factor (with -replay-trace;\n1.0 replays the trace bit-for-bit)")
	)
	shared := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = *seed
	spec.Duration = *duration
	spec.Cluster.InitialNodes = *nodes
	spec.Cluster.MaxNodes = *maxNodes
	spec.Cluster.NodeOpsPerSec = *nodeOps
	spec.Cluster.NoisyNeighbour = *noisy
	spec.Store.ReplicationFactor = *rf
	spec.Store.ReadConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*readCL))
	spec.Store.WriteConsistency = autonosql.ConsistencyLevel(strings.ToUpper(*writeCL))
	spec.Workload.Pattern = autonosql.LoadPattern(*pattern)
	spec.Workload.BaseOpsPerSec = *ops
	spec.Workload.PeakOpsPerSec = *peak
	spec.Workload.ReadFraction = *readFrac
	spec.Workload.Keyspace = *keys
	spec.Monitor.ActiveProbes = *probes > 0
	spec.Monitor.ProbeRate = *probes
	spec.SLA.MaxWindowP95 = *windowSLA
	spec.Controller.Mode = autonosql.ControllerMode(*controller)
	spec.Controller.Predictive = *predictive
	if err := shared.Apply(&spec); err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	if *replayPath != "" {
		trace, err := autonosql.ReadWorkloadTraceFile(*replayPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 2
		}
		if *scaleTrace != 1 {
			trace, err = trace.Scale(*scaleTrace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
				return 2
			}
		}
		spec.Replay = trace
	} else if *scaleTrace != 1 {
		fmt.Fprintln(os.Stderr, "nosqlsim: -scale-trace needs -replay-trace")
		return 2
	}

	scenario, err := autonosql.NewScenario(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 2
	}
	if *recordPath != "" {
		if err := scenario.RecordTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 2
		}
	}
	report, err := scenario.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
		return 1
	}
	if *recordPath != "" {
		trace, err := scenario.RecordedTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		if err := trace.WriteFile(*recordPath); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "recorded %d arrivals to %s\n", trace.EventCount(), *recordPath)
	}

	if *shared.TraceOps != "" {
		if err := cli.WriteFile(*shared.TraceOps, scenario.WriteSpans); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %d op-trace spans to %s\n", report.Spans.Sampled, *shared.TraceOps)
	}
	if *shared.TraceChrome != "" {
		if err := cli.WriteFile(*shared.TraceChrome, scenario.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "nosqlsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "wrote chrome trace to %s\n", *shared.TraceChrome)
	}

	fmt.Fprint(out, report.String())
	if *shared.Audit && len(report.Audit) > 0 {
		fmt.Fprintln(out, "\naudit trail:")
		for _, e := range report.Audit {
			fmt.Fprintf(out, "  %s\n", e)
		}
	}
	if *decisions && len(report.Decisions) > 0 {
		fmt.Fprintln(out, "\ncontroller decisions:")
		for _, d := range report.Decisions {
			fmt.Fprintf(out, "  %s\n", d)
		}
	}
	if *plot != "" {
		for _, name := range strings.Split(*plot, ",") {
			name = strings.TrimSpace(name)
			if p := report.PlotSeries(name, 50); p != "" {
				fmt.Fprintln(out)
				fmt.Fprint(out, p)
			} else {
				fmt.Fprintf(os.Stderr, "nosqlsim: unknown series %q\n", name)
			}
		}
	}
	return 0
}
