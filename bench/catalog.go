package main

// The catalogue is the single source of the benchmark's vocabulary: every
// workload, end-to-end metric and per-layer metric by name, with its unit,
// its direction and — written down before anything was measured — which
// end-to-end metric on which workload it is expected to move. BENCHMARK.json
// mirrors it (TestCatalogMatchesBenchmarkJSON) and `-list` prints it.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change counts as a regression (zero for per-layer
	// metrics, which carry no bound).
	Bound float64
	// Source says how a per-layer metric is taken: count, probe, span, host,
	// pkgshare or bench.
	Source string
	// Doc says what the number is; Moves says which end-to-end metric on
	// which workload a change to it should show up in.
	Doc   string
	Moves string
}

// workloadDef describes one workload.
type workloadDef struct {
	Name string
	// Why records why the workload exists: which layers it stresses and which
	// it bypasses.
	Why string
}

var workloadDefs = []workloadDef{
	{"steady_mixed", "no controller, constant 2000 ops/s, 50% zipfian reads: sim+store+cluster+workload do the work and the MAPE side almost none, so it is the bypass workload for every monitoring-side change"},
	{"steady_sharded", "the steady_mixed spec on the 4-lane lockstep engine, interleaved with plain runs in one process: the paired number the win-or-delete verdict on the lanes needs"},
	{"write_quorum_faults", "90% uniform writes over 200k keys at QUORUM on 5 nodes with a crash and a partition: replica fan-out, hints, anti-entropy and big version maps, with no zipf"},
	{"control_dense", "smart predictive controller, 1 s sampling, 5 s control, diurnal+spike load, audit and profile on: monitor snapshots, histogram sorts and MAPE steps dominate"},
	{"tenants_admission", "the throttled two-tenant golden shape (gold diurnal, bronze spike, overloaded nodes, admission on): tenant runtime, token-bucket shed, per-tenant SLA series, deep queues"},
	{"suite_grid", "12-variant grid (3 controllers x 2 sizes x 2 patterns) through RunStream and the streaming aggregator with CSV, JSON and table export: what a sweep user feels"},
	{"daemon_jobs", "closed loop, one client, sequential jobs against an in-process nosqlsimd server with op tracing on: submit to report latency through serve JSON, streaming and the obs span path"},
}

// End-to-end metrics. Every workload reports every one of them, with tracing
// off; all time is host time. The bounds are sized from this 2-CPU box: three
// sets of ten runs per workload, each run with another seed, spread =
// interquartile range over median. The timings spread 0.03-0.07 in a quiet
// set and up to 0.13 when the host has slow minutes (which show on every
// workload at once and which no amount of in-run repeating removes), so they
// take the contract's cap of 0.25; allocations and bytes spread at most 0.01
// and peak RSS at most 0.07, and their bounds are three times that.
var endToEndDefs = []metricDef{
	{Name: "wall_ns_per_simop", Unit: "ns", Better: "lower", Bound: 0.25,
		Doc: "wall time of the timed region (Scenario.Run, Suite.RunStream+Close, or one daemon job) per simulated client op, median over harness operations"},
	{Name: "cpu_ns_per_simop", Unit: "ns", Better: "lower", Bound: 0.25,
		Doc: "process CPU (getrusage user+sys) over the same region per simulated op; shows spin, GC workers and lane waste that wall hides"},
	{Name: "allocs_per_simop", Unit: "count", Better: "lower", Bound: 0.05,
		Doc: "heap allocations (MemStats.Mallocs delta) over the region per simulated op"},
	{Name: "bytes_per_simop", Unit: "B", Better: "lower", Bound: 0.05,
		Doc: "bytes allocated (MemStats.TotalAlloc delta) over the region per simulated op"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median wall time of one harness operation: a scenario run, a 12-variant suite pass, or one daemon job from POST to report and spans received"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		Doc: "ru_maxrss of the benchmark process when the run ends"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "spec/grid construction + NewScenario, NewSuite or server listen; median over the run's set-ups"},
}

// Per-layer metrics, reported by the traced run. Counts are per harness
// operation and repeat exactly for a seed; probes time a layer's public entry
// points in isolation at the workload's shape; spans come from the harness's
// own trace; pkgshare folds a CPU profile of the workload by package. A metric
// a workload does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	// sim
	{Name: "sim.events_per_simop", Unit: "count", Better: "lower", Source: "count", Doc: "engine events fired per simulated client op", Moves: "wall_ns_per_simop on every scenario workload, in proportion"},
	{Name: "sim.heap_peak", Unit: "count", Better: "lower", Source: "count", Doc: "pending-event high-water mark", Moves: "sim.schedule_fire_ns through heap depth; deepest @ tenants_admission"},
	{Name: "sim.pool_hit_rate", Unit: "ratio", Better: "higher", Source: "count", Doc: "pooled-event free-list hits / lookups", Moves: "allocs_per_simop everywhere"},
	{Name: "sim.lockstep_rounds", Unit: "count", Better: "lower", Source: "count", Doc: "lockstep barriers run", Moves: "sim.sharded_speedup, cpu_ns_per_simop @ steady_sharded only"},
	{Name: "sim.mail_drained", Unit: "count", Better: "lower", Source: "count", Doc: "cross-lane messages moved at barriers", Moves: "sim.sharded_speedup @ steady_sharded only"},
	{Name: "sim.feed_refills", Unit: "count", Better: "lower", Source: "count", Doc: "noise-feed batches produced on owner lanes", Moves: "sim.sharded_speedup @ steady_sharded only"},
	{Name: "sim.feed_inline", Unit: "count", Better: "lower", Source: "count", Doc: "noise-feed batches drawn inline on the home lane", Moves: "sim.sharded_speedup @ steady_sharded only"},
	{Name: "sim.schedule_fire_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one After+Step at the workload's heap depth", Moves: "wall_ns_per_simop everywhere, x events_per_simop"},
	{Name: "sim.lognormal_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one sim.LogNormal draw", Moves: "wall @ steady_mixed and write_quorum_faults, up to pkgshare.math"},
	{Name: "sim.exponential_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one sim.Exponential draw", Moves: "wall everywhere (one per arrival)"},
	{Name: "sim.zipf_next_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one Zipf.Next over the workload's keyspace", Moves: "wall @ steady_mixed; nothing @ write_quorum_faults"},
	{Name: "sim.lockstep_round_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "empty 4-lane ShardedEngine.Run / rounds", Moves: "sim.sharded_speedup, cpu_ns_per_simop @ steady_sharded only"},
	{Name: "sim.sharded_speedup", Unit: "ratio", Better: "higher", Source: "span", Doc: "median over interleaved pairs of plain wall / sharded wall, same process, same GOMAXPROCS", Moves: "is wall_ns_per_simop @ steady_mixed / @ steady_sharded, paired; 1 if the lanes are deleted"},
	// store
	{Name: "store.reads", Unit: "count", Better: "higher", Source: "count", Doc: "client reads simulated per harness operation", Moves: "the divisor of every per-simop metric"},
	{Name: "store.writes", Unit: "count", Better: "higher", Source: "count", Doc: "client writes simulated per harness operation", Moves: "the divisor of every per-simop metric"},
	{Name: "store.failed_op_share", Unit: "ratio", Better: "lower", Source: "count", Doc: "failed / issued simulated ops", Moves: "simulated statistic; must not move under a host-side optimisation"},
	{Name: "store.stale_read_share", Unit: "ratio", Better: "lower", Source: "count", Doc: "stale / all simulated reads", Moves: "simulated statistic; must not move under a host-side optimisation"},
	{Name: "store.write_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one write settled on an engine+cluster+store rig at the workload's nodes/RF/CL/keys", Moves: "wall @ write_quorum_faults (90% writes) and steady_mixed"},
	{Name: "store.read_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one read settled on the same rig", Moves: "wall @ steady_mixed"},
	{Name: "store.ring_lookup_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Ring.AppendReplicasFor at the workload's nodes/RF", Moves: "store.write_ns, store.read_ns"},
	{Name: "store.stats_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Store.Stats after 65536 ops, one op between calls", Moves: "wall @ control_dense (x300 snapshots); about 0 @ steady_mixed"},
	{Name: "store.recent_window_q_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Store.RecentWindowQuantile(0.95), one op between calls", Moves: "wall @ control_dense, tenants_admission"},
	// cluster
	{Name: "cluster.enqueue_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Node.Enqueue of one foreground op", Moves: "wall @ steady_mixed, write_quorum_faults"},
	{Name: "cluster.net_delay_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Network.NodeToNode", Moves: "wall @ steady_mixed, write_quorum_faults"},
	{Name: "cluster.available_nodes_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Cluster.AvailableNodes at the workload's size", Moves: "wall @ steady_mixed, write_quorum_faults"},
	// workload
	{Name: "workload.arrival_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "one Generator arrival against a no-op Target at the workload's rate and keys", Moves: "wall @ steady_mixed; steady_sharded moves it off the home lane"},
	{Name: "workload.next_key_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "KeyChooser.NextRead for the workload's distribution", Moves: "workload.arrival_ns"},
	// metrics
	{Name: "metrics.hist_observe_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Histogram.Observe at fill 65536", Moves: "wall everywhere (2-3 per op)"},
	{Name: "metrics.hist_snapshot_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Histogram.Snapshot at fill 65536, one Observe between calls", Moves: "store.stats_ns; wall @ control_dense only"},
	{Name: "metrics.windowed_observe_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "WindowedStat.Observe", Moves: "wall everywhere"},
	{Name: "metrics.windowed_quantiles_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "WindowedStat.Quantiles of three quantiles, one Observe between calls", Moves: "monitor.snapshot_ns; wall @ control_dense only"},
	{Name: "metrics.series_append_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "TimeSeries.Append", Moves: "wall @ control_dense (10+ per snapshot)"},
	// monitor
	{Name: "monitor.snapshots", Unit: "count", Better: "lower", Source: "count", Doc: "sampling windows closed per harness operation", Moves: "multiplies monitor.snapshot_ns and store.stats_ns"},
	{Name: "monitor.probe_ops", Unit: "count", Better: "lower", Source: "count", Doc: "active read-after-write probe operations", Moves: "wall @ control_dense"},
	{Name: "monitor.snapshot_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Monitor.Snapshot with 100 client ops between calls", Moves: "wall @ control_dense; scenario.window_wall_ms_max"},
	{Name: "monitor.observe_write_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Monitor.ObserveWrite of one passive observation", Moves: "wall everywhere passive observation is on (once per write)"},
	// core
	{Name: "core.control_intervals", Unit: "count", Better: "lower", Source: "count", Doc: "MAPE steps audited per harness operation", Moves: "multiplies core.step_ns"},
	{Name: "core.reconfigurations", Unit: "count", Better: "lower", Source: "count", Doc: "actions the controller applied", Moves: "simulated statistic; must not move under a host-side optimisation"},
	{Name: "core.step_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Controller.Step on a healthy snapshot with a no-op Actuator", Moves: "wall @ control_dense, tenants_admission; nothing @ steady_*"},
	// tenant
	{Name: "tenant.shed_ops", Unit: "count", Better: "lower", Source: "count", Doc: "operations shed by admission control", Moves: "simulated statistic @ tenants_admission"},
	{Name: "tenant.throttle_windows", Unit: "count", Better: "lower", Source: "count", Doc: "throttle windows across tenants", Moves: "simulated statistic @ tenants_admission"},
	{Name: "tenant.admit_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Limiter.Admit on an engaged token bucket", Moves: "wall @ tenants_admission only"},
	{Name: "tenant.runtime_op_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Runtime.Write through admission to a no-op target", Moves: "wall @ tenants_admission only"},
	{Name: "tenant.observe_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Runtime.Observe of one sampling interval", Moves: "wall @ tenants_admission only"},
	// sla, fault
	{Name: "sla.observe_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Tracker.Observe of one interval", Moves: "wall @ control_dense, tenants_admission"},
	{Name: "fault.windows", Unit: "count", Better: "lower", Source: "count", Doc: "fault windows that struck", Moves: "simulated statistic @ write_quorum_faults"},
	// obs
	{Name: "obs.spans_sampled", Unit: "count", Better: "lower", Source: "count", Doc: "op traces sampled per harness operation", Moves: "multiplies obs.span_ns @ daemon_jobs"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Source: "probe", Doc: "Tracer.Begin + six phase marks + Finish", Moves: "op_ms_p50 @ daemon_jobs"},
	{Name: "obs.jsonl_ns_per_span", Unit: "ns", Better: "lower", Source: "probe", Doc: "obs.WriteJSONL per trace", Moves: "op_ms_p50 @ daemon_jobs (the /spans fetch)"},
	{Name: "obs.overhead_share", Unit: "ratio", Better: "lower", Source: "probe", Doc: "the workload's spec run in-process with Observe set vs nil, wall ratio - 1", Moves: "op_ms_p50 @ daemon_jobs, wall @ control_dense; 0 on every Observe-nil workload"},
	// scenario, report
	{Name: "scenario.new_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "NewScenario span, median", Moves: "setup_s"},
	{Name: "scenario.run_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "Scenario.Run span, median", Moves: "is op_ms_p50 on scenario workloads"},
	{Name: "scenario.window_wall_ms_p50", Unit: "ms", Better: "lower", Source: "span", Doc: "wall between consecutive OnSample callbacks, median", Moves: "wall_ns_per_simop"},
	{Name: "scenario.window_wall_ms_max", Unit: "ms", Better: "lower", Source: "span", Doc: "the same, maximum: the periodic snapshot spike a median hides", Moves: "serve.first_window_ms_p50; exposes monitor.snapshot_ns @ control_dense"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "Report.String + Fingerprint + json.Marshal", Moves: "op_ms_p50 @ daemon_jobs, suite.scenarios_per_s"},
	{Name: "report.json_bytes", Unit: "B", Better: "lower", Source: "count", Doc: "size of the marshalled report", Moves: "report.render_ms, serve.report_bytes"},
	// suite
	{Name: "suite.variants", Unit: "count", Better: "higher", Source: "count", Doc: "variants per suite pass", Moves: "the numerator of suite.scenarios_per_s"},
	{Name: "suite.scenarios_per_s", Unit: "1/s", Better: "higher", Source: "span", Doc: "variants / elapsed of a RunStream pass, median", Moves: "is 12000 / op_ms_p50 @ suite_grid"},
	{Name: "suite.expand_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "NewSuite (grid expansion + validation) span", Moves: "setup_s @ suite_grid"},
	{Name: "suite.aggregate_us_per_variant", Unit: "us", Better: "lower", Source: "span", Doc: "SuiteAggregator.Add span per variant", Moves: "suite.scenarios_per_s"},
	{Name: "suite.export_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "aggregator Close + tables rendering", Moves: "suite.scenarios_per_s"},
	{Name: "suite.parallel_efficiency", Unit: "ratio", Better: "higher", Source: "span", Doc: "sum of per-variant wall from a Parallelism=1 pass / (parallel elapsed x workers)", Moves: "suite.scenarios_per_s; wall vs cpu divergence @ suite_grid"},
	// serve
	{Name: "serve.windows_streamed", Unit: "count", Better: "lower", Source: "count", Doc: "metric-window lines received per job", Moves: "op_ms_p50 @ daemon_jobs"},
	{Name: "serve.job_ms_p90", Unit: "ms", Better: "lower", Source: "span", Doc: "job latency at the highest percentile with at least ten samples beyond it", Moves: "the tail of op_ms_p50 @ daemon_jobs"},
	{Name: "serve.first_window_ms_p50", Unit: "ms", Better: "lower", Source: "span", Doc: "POST to first streamed metric-window line", Moves: "what a streaming client feels first @ daemon_jobs"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Source: "span", Doc: "POST /api/jobs round trip", Moves: "op_ms_p50 @ daemon_jobs"},
	{Name: "serve.done_to_report_ms_p50", Unit: "ms", Better: "lower", Source: "span", Doc: "stream EOF to report body received", Moves: "op_ms_p50 @ daemon_jobs"},
	{Name: "serve.report_bytes", Unit: "B", Better: "lower", Source: "count", Doc: "size of the report body", Moves: "serve.done_to_report_ms_p50"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower", Source: "span", Doc: "job latency - in-process Scenario.Run of the same spec", Moves: "op_ms_p50 @ daemon_jobs; daemon hardening should leave it flat"},
	{Name: "serve.metrics_scrape_ms", Unit: "ms", Better: "lower", Source: "span", Doc: "GET /metrics with every job of the run retained", Moves: "nothing end to end; grows with retained jobs"},
	// host
	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Source: "host", Doc: "GC cycles per harness operation", Moves: "cpu_ns_per_simop, peak_rss_mb"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Source: "host", Doc: "stop-the-world pause per harness operation", Moves: "wall_ns_per_simop"},
	{Name: "host.gc_cpu_share", Unit: "ratio", Better: "lower", Source: "host", Doc: "GC CPU / process CPU over the measured operations", Moves: "cpu_ns_per_simop; most @ write_quorum_faults"},
	// pkgshare
	{Name: "pkgshare.sim", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/sim", Moves: "upper bound on what speeding the package saves on this workload"},
	{Name: "pkgshare.store", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/store", Moves: "same"},
	{Name: "pkgshare.cluster", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/cluster", Moves: "same"},
	{Name: "pkgshare.workload", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/workload", Moves: "same"},
	{Name: "pkgshare.metrics", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/metrics", Moves: "same"},
	{Name: "pkgshare.monitor", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/monitor", Moves: "same"},
	{Name: "pkgshare.core", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/core, baseline and sla", Moves: "same"},
	{Name: "pkgshare.tenant", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/tenant", Moves: "same"},
	{Name: "pkgshare.obs", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/obs", Moves: "same"},
	{Name: "pkgshare.root", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of the root autonosql package", Moves: "same"},
	{Name: "pkgshare.serve", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of internal/serve, net/http, net and encoding/json", Moves: "same; daemon_jobs only"},
	{Name: "pkgshare.runtime_gc", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "cumulative share under the GC workers, sweeper and mutator assists", Moves: "cpu_ns_per_simop"},
	{Name: "pkgshare.runtime_malloc", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "cumulative share under mallocgc, less assists", Moves: "wall_ns_per_simop, allocs_per_simop"},
	{Name: "pkgshare.sort", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of sort and slices", Moves: "what a log-linear histogram can save @ control_dense"},
	{Name: "pkgshare.math", Unit: "ratio", Better: "lower", Source: "pkgshare", Doc: "flat CPU share of math and math/rand", Moves: "what a cheaper LogNormal can save @ steady_mixed, write_quorum_faults"},
	// bench
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Source: "bench", Doc: "median traced wall / median untraced wall - 1, interleaved in one process", Moves: "the instrument's own error bar"},
	{Name: "bench.repeat_spread", Unit: "ratio", Better: "lower", Source: "bench", Doc: "interquartile range / median of the untraced wall repeats", Moves: "the instrument's own error bar"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
