package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// profileWall is how much operation time the traced run profiles at scale 1:
// about 150 samples at the profiler's 100 Hz.
const profileWall = 1500 * time.Millisecond

// perLayer assembles every per-layer metric of a traced run: the workload's
// own counts and spans, the host's GC figures, the instrument's error bars,
// the CPU-profile package shares and the layer probes. Metrics a workload
// does not exercise read 0.
func perLayer(w runner, env *runEnv, samples []opSample, attempted *int, failures *[]string) (map[string]metricValue, error) {
	cfg := env.cfg
	values, err := w.layers(env, samples)
	if err != nil {
		return nil, fmt.Errorf("%s: layer metrics: %w", cfg.Workload, err)
	}

	// host and bench: from the interleaved traced/untraced operations.
	var tracedWalls, untracedWalls []float64
	var gcs, pauseMs, gcCPU, cpu float64
	untraced := primary(samples, true)
	for _, s := range primary(samples, false) {
		if s.Traced {
			tracedWalls = append(tracedWalls, float64(s.Wall))
		} else {
			untracedWalls = append(untracedWalls, float64(s.Wall))
		}
	}
	for _, s := range untraced {
		gcs += float64(s.GCs)
		pauseMs += float64(s.GCPause) / 1e6
		gcCPU += float64(s.GCCPU)
		cpu += float64(s.CPU)
	}
	if n := float64(len(untraced)); n > 0 {
		values["host.gc_cycles"] = gcs / n
		values["host.gc_pause_ms"] = pauseMs / n
		values["host.gc_cpu_share"] = share(gcCPU, cpu)
	}
	if len(tracedWalls) > 0 && len(untracedWalls) > 0 {
		values["bench.trace_overhead_share"] = median(tracedWalls)/median(untracedWalls) - 1
	}
	values["bench.repeat_spread"] = spread(untracedWalls)

	// pkgshare: profile a few more operations, fold by package.
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", cfg.OutDir, err)
	}
	profPath := filepath.Join(cfg.OutDir, cfg.Workload+".cpu.prof")
	minWall := time.Duration(float64(profileWall) * cfg.Scale)
	err = profileOps(profPath, minWall, func(i int) error {
		*attempted++
		if _, err := execOp(w, env, 1_000_000+i, false); err != nil {
			*failures = append(*failures, "profiled "+err.Error())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares, err := pkgShares(profPath, cfg.OutDir)
	if err != nil {
		// Never faked: the rows stay 0 and the run says why.
		fmt.Fprintf(os.Stderr, "bench: pkgshare rows unmeasured: %v\n", err)
	}
	for k, v := range shares {
		values[k] = v
	}

	// probes, at the workload's shape.
	sh := w.shape()
	sh.heapDepth = int(values["sim.heap_peak"])
	sh.scale = cfg.Scale
	probes, err := runProbes(sh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	for k, v := range probes {
		values[k] = v
	}

	spansPath := filepath.Join(cfg.OutDir, cfg.Workload+".spans.jsonl")
	f, err := os.Create(spansPath)
	if err != nil {
		return nil, fmt.Errorf("creating %s: %w", spansPath, err)
	}
	if err := writeSpansJSONL(f, env.tracer.all()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("closing %s: %w", spansPath, err)
	}

	out := make(map[string]metricValue, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out, nil
}
