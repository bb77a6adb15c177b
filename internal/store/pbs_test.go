package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

// The inconsistency window against a judge that is not a golden: the WARS
// model of Bailis et al., "Probabilistically Bounded Staleness for Practical
// Partial Quorums" (PVLDB 5(8), 2012). A write's window follows from the
// distributions of its legs — the mutation's trip to each replica, the
// replica's apply, the acknowledgement's trip back and the client leg — and
// below saturation nothing queues, so the whole distribution is computable
// from the exported cluster constants without the simulator. The store's
// ground truth must match it.

// pbsModelDraws is the Monte Carlo's sample size per configuration.
const pbsModelDraws = 100_000

// pbsWrites is how many writes one store run measures; pbsSeeds runs are
// compared per configuration.
const (
	pbsWrites = 2_000
	pbsSeeds  = 5
)

// warsWindow draws one write's window, in seconds, from the write path's leg
// structure with no queueing. Times run from the moment the coordinator has
// processed the write: the client's leg to it and its service shift every
// apply and every acknowledgement alike. A coordinator that is a replica
// (drawn uniformly among the nodes) applies and acknowledges itself at once;
// every other replica applies after a node-to-node leg and an apply service
// time, and acknowledges after a second leg. The client is acknowledged a
// client leg after the required-th acknowledgement, and the window runs from
// there to the last apply.
func warsWindow(rng *rand.Rand, rf, nodes, required int) float64 {
	leg := func(median time.Duration) float64 {
		return sim.LogNormal(rng, float64(median), cluster.JitterSigma)
	}
	apply := float64(time.Second) / cluster.DefaultNodeOpsPerSec * cluster.ReplicationApplyShare
	applies, acks := make([]float64, 0, rf), make([]float64, 0, rf)
	if rng.Intn(nodes) < rf {
		applies, acks = append(applies, 0), append(acks, 0)
	}
	for len(applies) < rf {
		at := leg(cluster.BaseLatency) + sim.LogNormal(rng, apply, cluster.ServiceTimeSigma)
		applies, acks = append(applies, at), append(acks, at+leg(cluster.BaseLatency))
	}
	slices.Sort(acks)
	clientAck := acks[required-1] + leg(cluster.ClientLatency)
	return max(slices.Max(applies)-clientAck, 0) / float64(time.Second)
}

// storeWindows measures pbsWrites windows, in seconds, on a store of the
// given shape: one write at a time, 100 ms apart, so no node ever queues
// (utilisation ≈ 0.002) and the replication traffic congests the network by
// under 0.3 %. Each write's window is the growth of the ground-truth
// histogram's sum across it.
func storeWindows(t *testing.T, rf, nodes int, cl ConsistencyLevel, seed int64) []float64 {
	clusterCfg := cluster.DefaultConfig()
	clusterCfg.InitialNodes = nodes
	cfg := DefaultConfig()
	cfg.ReplicationFactor = rf
	cfg.WriteConsistency = cl
	cfg.AntiEntropyInterval = 0
	h := newHarness(t, clusterCfg, cfg, seed)
	hist := h.store.windowHist
	out := make([]float64, pbsWrites)
	for i := range out {
		sum, n := hist.Sum(), hist.Count()
		h.store.WriteID(KeyID(i), nil)
		if err := h.engine.Run(h.engine.Now() + 100*time.Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if hist.Count() != n+1 {
			t.Fatalf("write %d recorded %d windows, want 1", i, hist.Count()-n)
		}
		out[i] = hist.Sum() - sum
	}
	return out
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic of two sorted
// samples: the largest gap between their empirical CDFs, evaluated after
// every run of tied values.
func ksDistance(a, b []float64) float64 {
	d := 0.0
	for i, j := 0, 0; i < len(a) || j < len(b); {
		x := math.Inf(1)
		if i < len(a) {
			x = a[i]
		}
		if j < len(b) {
			x = min(x, b[j])
		}
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	return sorted[min(max(int(math.Ceil(q*float64(len(sorted))))-1, 0), len(sorted)-1)]
}

// TestWindowMatchesWARS compares the store's ground-truth window with the
// WARS Monte Carlo for RF ∈ {1, 3, 5} × write CL ∈ {ONE, QUORUM, ALL} on
// max(RF, 3) nodes. Two bounds, neither fitted to the store:
//
//   - per seed, the KS distance stays below the two-sample critical value at
//     α = 10⁻⁴, c(α)·√((n+m)/nm) with c(α) = √(−ln(α/2)/2) ≈ 2.22 (0.050
//     for 2 000 store windows against 10⁵ draws);
//   - pooled over the seeds, the store's p50, p95 and p99 each lie between
//     the model's (q−δ)- and (q+δ)-quantiles, δ = 4·√(q(1−q)(1/n + 1/m)):
//     four standard errors of the two empirical quantiles' ranks, so the
//     band is as wide as the sampling and no wider (p99: about ±0.4 points,
//     505–615 µs around 550 µs at RF 5, CL=ONE), and an atom at zero must
//     be met exactly.
//
// RF 1 and CL=ALL are degenerate on purpose: every replica applies before
// the client hears back, so the window is 0 on both sides. A mismatch is a
// modelling finding for ARCHITECTURE §store, not a bound to loosen.
func TestWindowMatchesWARS(t *testing.T) {
	const alpha = 1e-4
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	n, m := float64(pbsWrites), float64(pbsModelDraws)
	maxKS := c * math.Sqrt((n+m)/(n*m))
	for _, rf := range []int{1, 3, 5} {
		for _, cl := range []ConsistencyLevel{One, Quorum, All} {
			t.Run(fmt.Sprintf("rf%d_%v", rf, cl), func(t *testing.T) {
				nodes := max(rf, 3)
				rng := rand.New(rand.NewSource(int64(100*rf) + int64(cl)))
				model := make([]float64, pbsModelDraws)
				for i := range model {
					model[i] = warsWindow(rng, rf, nodes, cl.Required(rf))
				}
				slices.Sort(model)
				var pooled []float64
				for seed := int64(1); seed <= pbsSeeds; seed++ {
					got := storeWindows(t, rf, nodes, cl, seed)
					slices.Sort(got)
					if d := ksDistance(got, model); d > maxKS {
						t.Errorf("seed %d: KS distance %.4f from the WARS model, want ≤ %.4f", seed, d, maxKS)
					}
					pooled = append(pooled, got...)
				}
				slices.Sort(pooled)
				for _, q := range []float64{0.50, 0.95, 0.99} {
					delta := 4 * math.Sqrt(q*(1-q)*(1/float64(len(pooled))+1/m))
					lo, hi, got := quantile(model, q-delta), quantile(model, q+delta), quantile(pooled, q)
					if got < lo || got > hi {
						t.Errorf("p%.0f window %.1f µs, outside the WARS model's [%.1f, %.1f] µs", 100*q, got*1e6, lo*1e6, hi*1e6)
					}
				}
				t.Logf("KS %.4f pooled; p50/p95/p99 store %.1f/%.1f/%.1f µs, model %.1f/%.1f/%.1f µs",
					ksDistance(pooled, model),
					quantile(pooled, 0.5)*1e6, quantile(pooled, 0.95)*1e6, quantile(pooled, 0.99)*1e6,
					quantile(model, 0.5)*1e6, quantile(model, 0.95)*1e6, quantile(model, 0.99)*1e6)
			})
		}
	}
}
