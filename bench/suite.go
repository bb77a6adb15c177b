package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"autonosql"
)

// suiteWorkload is suite_grid: each harness operation is one pass of the
// 12-variant grid through Suite.RunStream into a SuiteAggregator that streams
// CSV and JSON, followed by the tables export.
type suiteWorkload struct {
	cfg runConfig
	// refCSV and refJSON are the in-memory exports of a plain Suite.Run of
	// the same spec, taken once before anything is timed; every streamed
	// pass must reproduce them byte for byte.
	refCSV, refJSON []byte
	variants        int
}

func (w *suiteWorkload) spec(parallelism int) autonosql.SuiteSpec {
	return suiteGridSpec(w.cfg.Seed, w.cfg.sizing(), parallelism)
}

func (w *suiteWorkload) prepare(env *runEnv) error {
	suite, err := autonosql.NewSuite(w.spec(0))
	if err != nil {
		return err
	}
	rep, err := suite.Run()
	if err != nil {
		return err
	}
	var csv, js bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		return err
	}
	if err := rep.WriteJSON(&js); err != nil {
		return err
	}
	w.refCSV, w.refJSON = csv.Bytes(), js.Bytes()
	w.variants = rep.Len()
	env.reference = digestOf(js.String())
	for _, v := range rep.Variants {
		env.simOps += v.Report.Reads + v.Report.Writes
	}
	return nil
}

func (w *suiteWorkload) limits() (int, int, bool) { return 5, 24, true }
func (w *suiteWorkload) countsSetup() bool        { return true }
func (w *suiteWorkload) close() error             { return nil }

func (w *suiteWorkload) newOp(int, *runEnv, bool) op {
	return &suiteOp{w: w}
}

// suiteOp is one streamed pass over the grid.
type suiteOp struct {
	w           *suiteWorkload
	parallelism int

	suite     *autonosql.Suite
	agg       *autonosql.SuiteAggregator
	csv, json bytes.Buffer
	simOps    uint64
	// variantWalls is the wall time between consecutive deliveries, which at
	// Parallelism 1 is each variant's own run time.
	variantWalls []time.Duration
}

func (o *suiteOp) aux() bool { return false }

func (o *suiteOp) setup(tr *tracer, trace, parent int) error {
	spec := o.w.spec(o.parallelism)
	id := tr.begin(trace, parent, "new_suite")
	suite, err := autonosql.NewSuite(spec)
	tr.end(id)
	if err != nil {
		return err
	}
	o.suite = suite
	o.agg = autonosql.NewSuiteAggregator(autonosql.SuiteAggregatorOptions{CSV: &o.csv, JSON: &o.json})
	return nil
}

func (o *suiteOp) run(tr *tracer, trace, parent int) error {
	sid := tr.begin(trace, parent, "run_stream")
	last := time.Now()
	_, err := o.suite.RunStream(func(v autonosql.VariantResult) error {
		now := time.Now()
		o.variantWalls = append(o.variantWalls, now.Sub(last))
		last = now
		if v.Report != nil {
			o.simOps += v.Report.Reads + v.Report.Writes
		}
		aid := tr.begin(trace, sid, "add")
		err := o.agg.Add(v)
		tr.end(aid)
		return err
	})
	tr.end(sid)
	if err != nil {
		return err
	}
	cid := tr.begin(trace, parent, "close")
	err = o.agg.Close()
	tr.end(cid)
	return err
}

func (o *suiteOp) finish(tr *tracer, trace, parent int) (outcome, error) {
	id := tr.begin(trace, parent, "tables")
	tables := o.agg.String()
	tr.end(id)
	if tables == "" {
		return outcome{}, fmt.Errorf("aggregator rendered no tables")
	}
	if !bytes.Equal(o.csv.Bytes(), o.w.refCSV) {
		return outcome{}, fmt.Errorf("streamed CSV (%d bytes) differs from SuiteReport.WriteCSV (%d bytes)", o.csv.Len(), len(o.w.refCSV))
	}
	if !bytes.Equal(o.json.Bytes(), o.w.refJSON) {
		return outcome{}, fmt.Errorf("streamed JSON (%d bytes) differs from SuiteReport.WriteJSON (%d bytes)", o.json.Len(), len(o.w.refJSON))
	}
	return outcome{SimOps: o.simOps, Digest: digestOf(o.json.String())}, nil
}

func (w *suiteWorkload) layers(env *runEnv, samples []opSample) (map[string]float64, error) {
	m := map[string]float64{"suite.variants": float64(w.variants)}

	// Counts: one in-memory pass with the audit trail and self-profile on.
	spec := w.spec(0)
	spec.Base.Observe = &autonosql.ObserveSpec{Audit: true, Profile: true}
	suite, err := autonosql.NewSuite(spec)
	if err != nil {
		return nil, err
	}
	rep, err := suite.Run()
	if err != nil {
		return nil, err
	}
	var c counts
	for _, v := range rep.Variants {
		c.add(v.Report)
	}
	c.into(m)
	m["report.json_bytes"] = float64(len(w.refJSON))

	spans := env.tracer.all()
	m["suite.expand_ms"] = median(spanMillis(spans, "new_suite"))
	m["suite.aggregate_us_per_variant"] = median(spanMillis(spans, "add")) * 1000
	closeMs, tablesMs := median(spanMillis(spans, "close")), median(spanMillis(spans, "tables"))
	m["suite.export_ms"] = closeMs + tablesMs
	m["report.render_ms"] = tablesMs

	var rates []float64
	var elapsed []float64
	for _, s := range primary(samples, false) {
		rates = append(rates, float64(w.variants)/s.Wall.Seconds())
		elapsed = append(elapsed, s.Wall.Seconds())
	}
	m["suite.scenarios_per_s"] = median(rates)

	// Parallel efficiency: what the variants cost one after another, over
	// what the parallel pass had available.
	serial := &suiteOp{w: w, parallelism: 1}
	if err := serial.setup(nil, 0, 0); err != nil {
		return nil, err
	}
	if err := serial.run(nil, 0, 0); err != nil {
		return nil, err
	}
	if _, err := serial.finish(nil, 0, 0); err != nil {
		return nil, fmt.Errorf("serial pass: %w", err)
	}
	var sum float64
	for _, d := range serial.variantWalls {
		sum += d.Seconds()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > w.variants {
		workers = w.variants
	}
	m["suite.parallel_efficiency"] = sum / (median(elapsed) * float64(workers))
	return m, nil
}

func (w *suiteWorkload) shape() probeShape { return shapeOf(w.spec(0).Base) }
