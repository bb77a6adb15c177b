package autonosql_test

// The benchmark harness regenerates the experiment suite derived from the
// paper (see ARCHITECTURE.md for the system layout and EXPERIMENTS.md for
// the experiment-to-research-question mapping): one benchmark per
// experiment, E1–E5, plus a micro-benchmark of the simulation itself.
// Benchmarks run the quick-scale sweep so `go test -bench=.` finishes in
// minutes; the full sweep used for EXPERIMENTS.md is produced by
// `go run ./cmd/benchrunner -exp all`. Performance is measured by the
// benchmark of record in bench/ (see bench/README.md), not here.
//
// Each benchmark reports domain metrics (window percentiles, violation
// minutes, cost) through b.ReportMetric, so -benchmem output doubles as a
// compact summary of the reproduced results.

import (
	"testing"
	"time"

	"autonosql"
	"autonosql/internal/experiment"
)

// runExperiment executes one experiment per benchmark iteration and fails the
// benchmark if the experiment errors.
func runExperiment(b *testing.B, run func(experiment.Scale) (*experiment.Result, error)) *experiment.Result {
	b.Helper()
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := run(experiment.ScaleQuick)
		if err != nil {
			b.Fatalf("experiment failed: %v", err)
		}
		last = res
	}
	return last
}

// BenchmarkE1WindowParameterStudy regenerates E1: how the inconsistency
// window depends on load, replication factor, consistency level and platform
// interference.
func BenchmarkE1WindowParameterStudy(b *testing.B) {
	res := runExperiment(b, experiment.RunE1)
	b.ReportMetric(float64(len(res.Tables)), "tables")
}

// BenchmarkE2MonitoringOverhead regenerates E2: estimation error and overhead
// of the window-monitoring techniques (RQ1).
func BenchmarkE2MonitoringOverhead(b *testing.B) {
	res := runExperiment(b, experiment.RunE2)
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "techniques")
}

// BenchmarkE3SLADerivedConfig regenerates E3: deriving the configuration from
// the SLA and comparing it with the offline optimum (RQ2).
func BenchmarkE3SLADerivedConfig(b *testing.B) {
	res := runExperiment(b, experiment.RunE3)
	b.ReportMetric(float64(len(res.Tables[1].Rows)), "sla_limits")
}

// BenchmarkE4ReconfigurationActions regenerates E4: transient impact and
// convergence of individual reconfiguration actions, including the
// wrong-action-under-congestion case (RQ3).
func BenchmarkE4ReconfigurationActions(b *testing.B) {
	res := runExperiment(b, experiment.RunE4)
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "action_cases")
}

// BenchmarkE5EndToEnd regenerates E5: smart SLA-driven auto-scaling against
// the static and reactive baselines over a diurnal + flash-crowd day.
func BenchmarkE5EndToEnd(b *testing.B) {
	res := runExperiment(b, experiment.RunE5)
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "policies")
}

// BenchmarkScenarioThroughput measures the raw simulation speed of the public
// API: simulated client operations processed per wall-clock second for a
// plain three-node cluster without a controller.
func BenchmarkScenarioThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := autonosql.DefaultScenarioSpec()
		spec.Seed = int64(i + 1)
		spec.Duration = 30 * time.Second
		spec.Workload.BaseOpsPerSec = 2000
		spec.Controller.Mode = autonosql.ControllerNone
		scenario, err := autonosql.NewScenario(spec)
		if err != nil {
			b.Fatalf("NewScenario: %v", err)
		}
		rep, err := scenario.Run()
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		b.ReportMetric(float64(rep.Reads+rep.Writes), "simulated_ops/op")
	}
}

// BenchmarkSmartControllerOverhead measures the wall-clock cost of running
// the full MAPE-K loop (monitoring, analysis, planning, actuation) relative
// to the same scenario without a controller — the "computing power required
// to process and analyse these consistency measurements" the paper's RQ1
// asks about.
func BenchmarkSmartControllerOverhead(b *testing.B) {
	run := func(mode autonosql.ControllerMode, seed int64) {
		spec := autonosql.DefaultScenarioSpec()
		spec.Seed = seed
		spec.Duration = 30 * time.Second
		spec.Workload.BaseOpsPerSec = 2000
		spec.Controller.Mode = mode
		scenario, err := autonosql.NewScenario(spec)
		if err != nil {
			b.Fatalf("NewScenario: %v", err)
		}
		if _, err := scenario.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(autonosql.ControllerNone, int64(i+1))
		}
	})
	b.Run("smart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(autonosql.ControllerSmart, int64(i+1))
		}
	})
}
