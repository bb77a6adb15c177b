package main

import (
	"encoding/json"
	"fmt"
	"time"

	"autonosql"
)

// scenarioWorkload is every workload whose harness operation is one
// NewScenario + Scenario.Run: steady_mixed, steady_sharded (whose plain
// members ride along as aux operations), write_quorum_faults, control_dense
// and tenants_admission.
type scenarioWorkload struct {
	cfg  runConfig
	spec func(seed int64, z sizing) autonosql.ScenarioSpec
	// plain, when non-nil, is the spec of the aux member of each pair; the
	// operations then run plain, sharded, sharded, plain, ... so a drift
	// cancels inside every four.
	plain func(seed int64, z sizing) autonosql.ScenarioSpec
}

func (w *scenarioWorkload) prepare(*runEnv) error { return nil }

func (w *scenarioWorkload) limits() (int, int, bool) {
	if w.plain != nil {
		return 10, 40, true // five pairs at least
	}
	return 5, 24, true
}

func (w *scenarioWorkload) countsSetup() bool { return true }
func (w *scenarioWorkload) close() error      { return nil }

func (w *scenarioWorkload) newOp(i int, env *runEnv, watch bool) op {
	o := &scenarioOp{build: w.spec, cfg: w.cfg}
	if w.plain != nil {
		// i = -1 (the warm-up, which fixes the reference digest) is plain.
		if k := ((i % 4) + 4) % 4; k == 0 || k == 3 {
			o.build, o.isAux = w.plain, true
		}
	}
	if watch {
		o.env = env
	}
	return o
}

// scenarioOp is one scenario repeat.
type scenarioOp struct {
	cfg   runConfig
	build func(seed int64, z sizing) autonosql.ScenarioSpec
	isAux bool
	env   *runEnv // non-nil when the operation records window walls

	scenario *autonosql.Scenario
	report   *autonosql.Report
	// jsonBytes is the size of the marshalled report, for report.json_bytes.
	jsonBytes int
}

func (o *scenarioOp) aux() bool { return o.isAux }

func (o *scenarioOp) setup(tr *tracer, trace, parent int) error {
	spec := o.build(o.cfg.Seed, o.cfg.sizing())
	id := tr.begin(trace, parent, "new_scenario")
	sc, err := autonosql.NewScenario(spec)
	tr.end(id)
	if err != nil {
		return err
	}
	if o.env != nil {
		last := time.Now()
		sc.OnSample(func(autonosql.SampleWindow) error {
			now := time.Now()
			o.env.windowWalls = append(o.env.windowWalls, float64(now.Sub(last))/1e6)
			last = now
			return nil
		})
	}
	o.scenario = sc
	return nil
}

func (o *scenarioOp) run(*tracer, int, int) error {
	rep, err := o.scenario.Run()
	o.report = rep
	return err
}

func (o *scenarioOp) finish(tr *tracer, trace, parent int) (outcome, error) {
	id := tr.begin(trace, parent, "render")
	_ = o.report.String()
	fp := o.report.Fingerprint()
	b, err := json.Marshal(o.report)
	tr.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("marshalling report: %w", err)
	}
	o.jsonBytes = len(b)
	return outcome{SimOps: o.report.Reads + o.report.Writes, Digest: digestOf(fp)}, nil
}

// companion runs the workload's spec once more with the audit trail and the
// engine self-profile on — neither changes a simulated statistic, which the
// digest check confirms — and returns the report the counts are read from.
func (w *scenarioWorkload) companion(env *runEnv) (*autonosql.Report, int, error) {
	build := func(seed int64, z sizing) autonosql.ScenarioSpec {
		spec := w.spec(seed, z)
		ob := autonosql.ObserveSpec{}
		if spec.Observe != nil {
			ob = *spec.Observe
		}
		ob.Audit, ob.Profile = true, true
		spec.Observe = &ob
		return spec
	}
	o := &scenarioOp{build: build, cfg: w.cfg}
	if err := o.setup(nil, 0, 0); err != nil {
		return nil, 0, err
	}
	if err := o.run(nil, 0, 0); err != nil {
		return nil, 0, err
	}
	out, err := o.finish(nil, 0, 0)
	if err != nil {
		return nil, 0, err
	}
	if out.Digest != env.reference {
		return nil, 0, fmt.Errorf("companion repeat digest %.12s differs from the reference %.12s: Observe changed a simulated statistic", out.Digest, env.reference)
	}
	return o.report, o.jsonBytes, nil
}

// counts accumulates the exact, deterministic counters of one harness
// operation's reports (one for a scenario or a job, twelve for a suite pass).
type counts struct {
	reads, writes, failed, stale   float64
	snapshots, probeOps            float64
	controlIntervals, reconfigs    float64
	faults, shed, throttles, spans float64
	events, poolHits, poolLookups  float64
	heapPeak, rounds, mail         float64
	feedRefills, feedInline        float64
}

func (c *counts) add(rep *autonosql.Report) {
	c.reads += float64(rep.Reads)
	c.writes += float64(rep.Writes)
	c.failed += float64(rep.FailedReads + rep.FailedWrites)
	c.stale += float64(rep.StaleReads)
	c.snapshots += float64(len(rep.Series[autonosql.SeriesClusterSize]))
	c.probeOps += float64(rep.MonitoringProbeOps)
	c.controlIntervals += float64(len(rep.Audit))
	c.reconfigs += float64(rep.Reconfigurations)
	c.faults += float64(len(rep.Faults))
	for _, tr := range rep.Tenants {
		c.shed += float64(tr.ShedOps)
		c.throttles += float64(len(tr.Throttles))
	}
	if rep.Spans != nil {
		c.spans += float64(rep.Spans.Sampled)
	}
	if p := rep.Profile; p != nil {
		c.events += float64(p.Events)
		c.poolHits += float64(p.PoolHits)
		c.poolLookups += float64(p.PoolHits + p.PoolMisses)
		if hp := float64(p.HeapPeak); hp > c.heapPeak {
			c.heapPeak = hp
		}
		c.rounds += float64(p.Rounds)
		c.mail += float64(p.MailDrained)
		if p.Feeds != nil {
			c.feedRefills += float64(p.Feeds.Refills)
			c.feedInline += float64(p.Feeds.Inline)
		}
	}
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// into writes the count metrics into m.
func (c *counts) into(m map[string]float64) {
	ops := c.reads + c.writes
	m["store.reads"] = c.reads
	m["store.writes"] = c.writes
	m["store.failed_op_share"] = share(c.failed, ops)
	m["store.stale_read_share"] = share(c.stale, c.reads)
	m["monitor.snapshots"] = c.snapshots
	m["monitor.probe_ops"] = c.probeOps
	m["core.control_intervals"] = c.controlIntervals
	m["core.reconfigurations"] = c.reconfigs
	m["fault.windows"] = c.faults
	m["tenant.shed_ops"] = c.shed
	m["tenant.throttle_windows"] = c.throttles
	m["obs.spans_sampled"] = c.spans
	m["sim.events_per_simop"] = share(c.events, ops)
	m["sim.heap_peak"] = c.heapPeak
	m["sim.pool_hit_rate"] = share(c.poolHits, c.poolLookups)
	m["sim.lockstep_rounds"] = c.rounds
	m["sim.mail_drained"] = c.mail
	m["sim.feed_refills"] = c.feedRefills
	m["sim.feed_inline"] = c.feedInline
}

func (w *scenarioWorkload) layers(env *runEnv, samples []opSample) (map[string]float64, error) {
	m := map[string]float64{}
	rep, jsonBytes, err := w.companion(env)
	if err != nil {
		return nil, err
	}
	var c counts
	c.add(rep)
	c.into(m)
	m["report.json_bytes"] = float64(jsonBytes)

	spans := env.tracer.all()
	m["scenario.new_ms"] = median(spanMillis(spans, "new_scenario"))
	m["scenario.run_ms"] = median(spanMillis(spans, "run"))
	m["report.render_ms"] = median(spanMillis(spans, "render"))
	m["scenario.window_wall_ms_p50"] = median(env.windowWalls)
	m["scenario.window_wall_ms_max"] = percentile(env.windowWalls, 100)
	if sp := pairSpeedups(samples); len(sp) > 0 {
		m["sim.sharded_speedup"] = median(sp)
	}

	spec := w.spec(w.cfg.Seed, w.cfg.sizing())
	if spec.Observe != nil {
		m["obs.overhead_share"], err = observeOverhead(spec)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (w *scenarioWorkload) shape() probeShape {
	return shapeOf(w.spec(w.cfg.Seed, w.cfg.sizing()))
}

// observeOverhead runs spec in-process with its Observe section and with
// none, interleaved, and returns median(observed wall)/median(bare wall) - 1.
// The virtual duration is capped so the probe stays a fraction of a run.
func observeOverhead(spec autonosql.ScenarioSpec) (float64, error) {
	if limit := 20 * time.Second; spec.Duration > limit {
		spec.Duration = limit
	}
	bare := spec
	bare.Observe = nil
	var observed, plain []float64
	for i := 0; i < 12; i++ {
		s, dst := spec, &observed
		if k := i % 4; k == 0 || k == 3 {
			s, dst = bare, &plain
		}
		sc, err := autonosql.NewScenario(s)
		if err != nil {
			return 0, fmt.Errorf("observe overhead probe: %w", err)
		}
		start := time.Now()
		if _, err := sc.Run(); err != nil {
			return 0, fmt.Errorf("observe overhead probe: %w", err)
		}
		*dst = append(*dst, float64(time.Since(start)))
	}
	return median(observed)/median(plain) - 1, nil
}
