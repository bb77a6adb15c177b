package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// errRegression is returned by compareFiles when any metric is worse or more
// operations failed; it makes the command exit non-zero.
var errRegression = errors.New("regression: a metric is worse than its bound allows, or more operations failed")

// samplesOf returns the values a metric's verdict is judged on: its in-run
// repeats when it has them, else the single reported value.
func samplesOf(v metricValue) []float64 {
	if len(v.Raw) > 0 {
		return v.Raw
	}
	return []float64{v.Value}
}

// separated reports whether every value of a reads better than every value
// of b.
func separated(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sa[0] > sb[len(sb)-1]
	}
	return sa[len(sa)-1] < sb[0]
}

// judge compares the new side's runs with the old side's for one metric.
// worsening is the change of the median as a share of the old median, positive
// when the new side is worse. The rule is the one the benchmark's bounds are
// defined by: worse by more than the bound is a regression; where either
// side's own spread (interquartile range over median) is wider than the bound
// the metric cannot be called either way — unresolved — unless every run of
// one side beats every run of the other; an improvement counts only when it
// exceeds the old side's own spread.
func judge(old, new []float64, better string, bound float64) (verdict string, worsening float64) {
	mo, mn := median(old), median(new)
	if mo != 0 {
		worsening = (mn - mo) / math.Abs(mo)
	}
	if better == "higher" {
		worsening = -worsening
	}
	if math.Max(spread(old), spread(new)) > bound {
		switch {
		case separated(new, old, better):
			return verdictImproved, worsening
		case separated(old, new, better):
			return verdictWorse, worsening
		}
		return verdictUnresolved, worsening
	}
	noise := spread(old)
	if len(old) < 2 {
		// A single reading has no spread of its own to clear.
		noise = bound
	}
	switch {
	case worsening > bound:
		return verdictWorse, worsening
	case worsening < 0 && -worsening > noise:
		return verdictImproved, worsening
	}
	return verdictUnchanged, worsening
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the ratio with its base, and the verdict.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldDoc, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readResults(newPath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		path string
		doc  *resultsFile
	}{{oldPath, oldDoc}, {newPath, newDoc}} {
		if !side.doc.Env.Comparable {
			return fmt.Errorf("%s was measured at scale %g and is not comparable", side.path, side.doc.Env.Scale)
		}
		if side.doc.Env.Traced {
			return fmt.Errorf("%s is a traced run; end-to-end metrics are compared with tracing off", side.path)
		}
	}
	if oldDoc.Env.GOMAXPROCS != newDoc.Env.GOMAXPROCS || oldDoc.Env.Seed != newDoc.Env.Seed {
		fmt.Fprintf(w, "note: old ran at GOMAXPROCS=%d seed=%d, new at GOMAXPROCS=%d seed=%d\n",
			oldDoc.Env.GOMAXPROCS, oldDoc.Env.Seed, newDoc.Env.GOMAXPROCS, newDoc.Env.Seed)
	}

	regressed := false
	for _, wd := range workloadDefs {
		o, n := oldDoc.Workloads[wd.Name], newDoc.Workloads[wd.Name]
		if o == nil || n == nil {
			continue
		}
		same := "differ"
		if o.SimFingerprintSHA256 == n.SimFingerprintSHA256 {
			same = "identical"
		}
		fmt.Fprintf(w, "%s (simulated statistics %s; failed %d/%d -> %d/%d)\n",
			wd.Name, same, o.Failed, o.Attempted, n.Failed, n.Attempted)
		if share(float64(n.Failed), float64(n.Attempted)) > share(float64(o.Failed), float64(o.Attempted)) {
			fmt.Fprintf(w, "  more operations failed: %s\n", verdictWorse)
			regressed = true
		}
		for _, d := range endToEndDefs {
			ov, ok1 := o.Metrics[d.Name]
			nv, ok2 := n.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			os, ns := samplesOf(ov), samplesOf(nv)
			verdict, _ := judge(os, ns, d.Better, d.Bound)
			so, sn := summarize(os), summarize(ns)
			ratio := 0.0
			if so.Median != 0 {
				ratio = sn.Median / so.Median
			}
			fmt.Fprintf(w, "  %-18s old %.6g [%.6g, %.6g] n=%d   new %.6g [%.6g, %.6g] n=%d   new/old %.4f   %s better, bound %.2f: %s\n",
				d.Name, so.Median, so.Q1, so.Q3, so.N, sn.Median, sn.Q1, sn.Q3, sn.N, ratio, d.Better, d.Bound, verdict)
			if verdict == verdictWorse {
				regressed = true
			}
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}
