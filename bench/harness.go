package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// runConfig is one workload run as requested on the command line.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    float64
	OutDir   string
}

func (c runConfig) sizing() sizing { return sizing{scale: c.Scale} }

// outcome is what a finished harness operation simulated: how many client
// operations, and a digest that is equal exactly when every simulated
// statistic is.
type outcome struct {
	SimOps uint64
	Digest string
}

// op is one harness operation: a scenario repeat, a suite pass or a daemon
// job. The harness times setup for setup_s, runs run inside the measured
// region and calls finish, untimed, to render and check the outputs. tr may
// be nil (untraced); trace and parent place the operation's child spans.
type op interface {
	setup(tr *tracer, trace, parent int) error
	run(tr *tracer, trace, parent int) error
	finish(tr *tracer, trace, parent int) (outcome, error)
	// aux marks an operation that rides along for a paired comparison (the
	// plain member of a plain/sharded pair) and feeds no end-to-end metric.
	aux() bool
}

// runner is the part of a run that differs between workloads.
type runner interface {
	// prepare runs once before anything is timed. It may fix env.reference
	// (the digest every operation must reproduce) and add set-up samples.
	prepare(env *runEnv) error
	// newOp returns the i-th operation; watch is set for traced operations
	// that should also record per-window wall times.
	newOp(i int, env *runEnv, watch bool) op
	// limits bounds the operations per run and says whether each starts from
	// a collected heap (process-like operations do; daemon jobs do not).
	limits() (minOps, maxOps int, gcBetween bool)
	// countsSetup says whether an operation's setup is a setup_s sample.
	countsSetup() bool
	// layers returns the workload's own per-layer metrics (traced runs).
	layers(env *runEnv, samples []opSample) (map[string]float64, error)
	// shape describes the workload to the layer probes.
	shape() probeShape
	close() error
}

// runEnv is the state one run shares between the harness and its workload.
type runEnv struct {
	cfg    runConfig
	tracer *tracer // nil unless -trace 1

	// reference is the digest of the first operation of this seed; every
	// later operation must reproduce it.
	reference string
	simOps    uint64

	setups      []time.Duration // setup_s samples
	windowWalls []float64       // ms between OnSample callbacks, traced operations
}

// opSample is the measured record of one harness operation.
type opSample struct {
	Index  int
	Traced bool
	Aux    bool
	Setup  time.Duration
	reading
	SimOps uint64
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// execOp runs one operation end to end and checks it. A non-nil error means
// the operation failed (and its sample must not be used).
func execOp(w runner, env *runEnv, i int, traced bool) (opSample, error) {
	var tr *tracer
	if traced {
		tr = env.tracer
	}
	_, _, gcBetween := w.limits()
	if gcBetween {
		runtime.GC()
	}
	o := w.newOp(i, env, traced)
	s := opSample{Index: i, Traced: traced, Aux: o.aux()}

	root := tr.begin(i, 0, "op")
	defer tr.end(root)

	sid := tr.begin(i, root, "setup")
	t0 := time.Now()
	err := o.setup(tr, i, sid)
	s.Setup = time.Since(t0)
	tr.end(sid)
	if err != nil {
		return s, fmt.Errorf("op %d setup: %w", i, err)
	}

	rid := tr.begin(i, root, "run")
	s.reading, err = measure(func() error { return o.run(tr, i, rid) })
	tr.end(rid)
	if err != nil {
		return s, fmt.Errorf("op %d run: %w", i, err)
	}

	fid := tr.begin(i, root, "finish")
	out, err := o.finish(tr, i, fid)
	tr.end(fid)
	if err != nil {
		return s, fmt.Errorf("op %d: %w", i, err)
	}
	s.SimOps = out.SimOps
	if out.SimOps == 0 {
		return s, fmt.Errorf("op %d simulated zero operations", i)
	}
	if env.reference == "" {
		env.reference = out.Digest
		env.simOps = out.SimOps
	} else if out.Digest != env.reference {
		return s, fmt.Errorf("op %d digest %.12s differs from the first operation of this seed (%.12s)", i, out.Digest, env.reference)
	}
	return s, nil
}

// tracedOp decides which operations of a traced run record spans. Pairs of
// operations alternate untraced/traced/traced/untraced, so traced and
// untraced walls come interleaved from one process and a linear drift cancels
// — and so both members of a plain/sharded pair land on each side.
func tracedOp(i int) bool {
	k := (i / 2) % 4
	return k == 1 || k == 2
}

// extraSetups is how many set-ups a run times beyond those of its operations.
const extraSetups = 24

// hardStop keeps a run inside the driver's per-run limit whatever the host.
const hardStop = 120 * time.Second

// measureOps is the measured loop: one untimed warm-up operation, then
// operations until the time budget is spent (never fewer than the workload's
// minimum, never more than its cap).
func measureOps(w runner, env *runEnv) (samples []opSample, attempted int, failures []string) {
	minOps, maxOps, _ := w.limits()
	budget := time.Duration(env.cfg.Seconds * float64(time.Second))
	if env.cfg.Trace {
		// The traced run spends the rest of its time on the companion
		// repeat, the CPU profile and the probes.
		budget = budget * 6 / 10
	}

	attempted++
	if _, err := execOp(w, env, -1, false); err != nil {
		failures = append(failures, "warm-up: "+err.Error())
	}

	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if len(samples) >= maxOps || elapsed > hardStop {
			break
		}
		if i >= minOps && elapsed >= budget {
			break
		}
		attempted++
		s, err := execOp(w, env, i, env.cfg.Trace && tracedOp(i))
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		samples = append(samples, s)
	}
	return samples, attempted, failures
}

// metricValue is one reported number with, for timed metrics, the in-run
// repeats it is the median of.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Raw   []float64 `json:"raw,omitempty"`
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Traced     bool     `json:"traced"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	Operations int      `json:"operations"`
	// SimOps is the simulated client operations of one harness operation;
	// SimFingerprintSHA256 is equal across two commits exactly when every
	// simulated statistic is.
	SimOps               uint64                 `json:"sim_ops"`
	SimFingerprintSHA256 string                 `json:"sim_fingerprint_sha256"`
	Metrics              map[string]metricValue `json:"metrics"`
	// Extras are informational numbers outside the declared metric set.
	Extras map[string]metricValue `json:"extras,omitempty"`
	// Spans summarises a traced run's spans by name; the spans themselves are
	// in <workload>.spans.jsonl.
	Spans []spanRow `json:"spans,omitempty"`
}

func fromSamples(unit string, raw []float64) metricValue {
	return metricValue{Value: median(raw), Unit: unit, Raw: raw}
}

// primary returns the samples that feed end-to-end metrics, optionally only
// the untraced ones.
func primary(samples []opSample, untracedOnly bool) []opSample {
	var out []opSample
	for _, s := range samples {
		if s.Aux || (untracedOnly && s.Traced) {
			continue
		}
		out = append(out, s)
	}
	return out
}

func perSimOp(samples []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, f(s)/float64(s.SimOps))
	}
	return out
}

// endToEnd folds the samples of an untraced run into the end-to-end metrics.
func endToEnd(env *runEnv, samples []opSample) map[string]metricValue {
	prim := primary(samples, false)
	m := map[string]metricValue{
		"wall_ns_per_simop": fromSamples("ns", perSimOp(prim, func(s opSample) float64 { return float64(s.Wall) })),
		"cpu_ns_per_simop":  fromSamples("ns", perSimOp(prim, func(s opSample) float64 { return float64(s.CPU) })),
		"allocs_per_simop":  fromSamples("count", perSimOp(prim, func(s opSample) float64 { return float64(s.Mallocs) })),
		"bytes_per_simop":   fromSamples("B", perSimOp(prim, func(s opSample) float64 { return float64(s.Bytes) })),
	}
	walls := make([]float64, 0, len(prim))
	for _, s := range prim {
		walls = append(walls, float64(s.Wall)/1e6)
	}
	m["op_ms_p50"] = fromSamples("ms", walls)
	setups := make([]float64, 0, len(env.setups))
	for _, d := range env.setups {
		setups = append(setups, d.Seconds())
	}
	m["setup_s"] = fromSamples("s", setups)
	m["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	return m
}

// pairSpeedups returns aux wall / primary wall for every adjacent pair of
// operations holding one of each.
func pairSpeedups(samples []opSample) []float64 {
	byIndex := make(map[int]opSample, len(samples))
	for _, s := range samples {
		byIndex[s.Index] = s
	}
	var out []float64
	for _, a := range samples {
		if a.Index%2 != 0 {
			continue
		}
		b, ok := byIndex[a.Index+1]
		if !ok || a.Aux == b.Aux {
			continue
		}
		if a.Aux {
			out = append(out, float64(a.Wall)/float64(b.Wall))
		} else {
			out = append(out, float64(b.Wall)/float64(a.Wall))
		}
	}
	return out
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	def, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	env := &runEnv{cfg: cfg}
	if cfg.Trace {
		env.tracer = newTracer()
	}
	res := &workloadResult{Workload: def.Name, Why: def.Why, Traced: cfg.Trace}

	if err := w.prepare(env); err != nil {
		_ = w.close()
		return nil, fmt.Errorf("%s: preparing: %w", def.Name, err)
	}
	samples, attempted, failures := measureOps(w, env)
	if w.countsSetup() {
		for _, s := range samples {
			env.setups = append(env.setups, s.Setup)
		}
		// Set-up is a fraction of a millisecond; a few dozen more samples
		// cost nothing and steady its median.
		for i := 0; i < extraSetups; i++ {
			start := time.Now()
			if err := w.newOp(i, env, false).setup(nil, 0, 0); err != nil {
				failures = append(failures, "extra set-up: "+err.Error())
				break
			}
			env.setups = append(env.setups, time.Since(start))
		}
	}
	res.Attempted = attempted
	res.Failures = failures
	res.Operations = len(samples)
	res.SimOps = env.simOps
	res.SimFingerprintSHA256 = env.reference

	if len(primary(samples, false)) == 0 {
		_ = w.close()
		res.Failed = len(res.Failures)
		return res, fmt.Errorf("%s: no operation succeeded: %v", def.Name, failures)
	}

	if cfg.Trace {
		res.Metrics, err = perLayer(w, env, samples, &res.Attempted, &res.Failures)
		res.Spans = spanTable(env.tracer.all())
	} else {
		res.Metrics = endToEnd(env, samples)
		res.Extras = extras(samples)
	}
	res.Failed = len(res.Failures)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: closing: %w", def.Name, cerr)
	}
	return res, err
}

// extras are the informational numbers an untraced run prints beside the
// declared metrics.
func extras(samples []opSample) map[string]metricValue {
	out := map[string]metricValue{}
	if sp := pairSpeedups(samples); len(sp) > 0 {
		out["sharded_speedup"] = fromSamples("ratio", sp)
	}
	walls := []float64{}
	for _, s := range primary(samples, false) {
		walls = append(walls, float64(s.Wall)/1e6)
	}
	if p, v, ok := tailPercentile(walls); ok && p > 50 {
		out[fmt.Sprintf("op_ms_p%g", p)] = metricValue{Value: v, Unit: "ms"}
	}
	return out
}
