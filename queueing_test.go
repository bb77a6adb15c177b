package autonosql

import (
	"fmt"
	"math"
	"testing"
	"time"

	"autonosql/internal/cluster"
)

// singleNodeSpec is one node at replication factor 1 with no probes and no
// controller, offered Poisson traffic at utilisation rho: every client
// operation is a client -> node leg, a wait and a service at the node's
// single executor, and a node -> client leg, and nothing else queues there.
func singleNodeSpec(seed int64, rho float64) ScenarioSpec {
	spec := DefaultScenarioSpec()
	spec.Seed = seed
	spec.Duration = 2 * time.Minute
	spec.Cluster.InitialNodes, spec.Cluster.MinNodes, spec.Cluster.MaxNodes = 1, 1, 1
	spec.Store.ReplicationFactor = 1
	spec.Monitor.ActiveProbes = false
	spec.Controller.Mode = ControllerNone
	// A node's service time is log-normal with median 1/NodeOpsPerSec.
	spec.Workload.BaseOpsPerSec = rho / logNormalMoment(1/spec.Cluster.NodeOpsPerSec, cluster.ServiceTimeSigma, 1)
	return spec
}

// logNormalMoment is E[X^k] of a log-normal with the given median and shape.
func logNormalMoment(median, sigma float64, k float64) float64 {
	return math.Pow(median, k) * math.Exp(k*k*sigma*sigma/2)
}

// TestSingleNodeLatencyMatchesMG1 judges the whole client path of a
// scenario against closed-form queueing theory rather than a golden. With one
// node, RF = 1 and no probes or controller, a client operation's latency is
// two ClientToNode legs plus the node's response time. The arrivals are
// Poisson, and iid network delays keep them Poisson at the node, so the node
// is an M/G/1 queue whose mean response time is Pollaczek–Khinchine's
// E[S] + lambda·E[S²] / (2(1 − rho)).
//
// The tolerances were fixed before the first run, from the expected
// standard errors of a 2-minute run (85k operations at rho = 0.3, 169k at
// 0.6): the mean client latency within 1 % of the model, and its queueing
// part (the mean minus the two leg means) within 4 % of the P–K response
// time. Both are several standard errors wide; a sampler whose mean is off
// by 1 %, or a node that serves 5 % slower than its capacity, fails them.
func TestSingleNodeLatencyMatchesMG1(t *testing.T) {
	legMean := logNormalMoment(cluster.ClientLatency.Seconds(), cluster.JitterSigma, 1)
	for _, rho := range []float64{0.3, 0.6} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("rho=%.1f/seed=%d", rho, seed), func(t *testing.T) {
				spec := singleNodeSpec(seed, rho)
				rep := runScenario(t, spec)
				ops := float64(rep.Reads + rep.Writes)
				if rep.FailedReads+rep.FailedWrites != 0 || ops == 0 {
					t.Fatalf("%d reads, %d writes, %d/%d failed", rep.Reads, rep.Writes, rep.FailedReads, rep.FailedWrites)
				}
				mean := (float64(rep.Reads)*rep.ReadLatency.Mean + float64(rep.Writes)*rep.WriteLatency.Mean) / ops

				median := 1 / spec.Cluster.NodeOpsPerSec
				es := logNormalMoment(median, cluster.ServiceTimeSigma, 1)
				es2 := logNormalMoment(median, cluster.ServiceTimeSigma, 2)
				lambda := spec.Workload.BaseOpsPerSec
				response := es + lambda*es2/(2*(1-lambda*es))
				model := 2*legMean + response

				if rel := math.Abs(mean-model) / model; rel > 0.01 {
					t.Errorf("mean client latency %.4f ms, M/G/1 model %.4f ms (%.2f %% off, tolerance 1 %%)",
						mean*1e3, model*1e3, rel*100)
				}
				queueing := mean - 2*legMean
				t.Logf("mean %.4f ms (model %.4f), node response %.4f ms (P–K %.4f)", mean*1e3, model*1e3, queueing*1e3, response*1e3)
				if rel := math.Abs(queueing-response) / response; rel > 0.04 {
					t.Errorf("node response %.4f ms, Pollaczek–Khinchine %.4f ms (%.2f %% off, tolerance 4 %%)",
						queueing*1e3, response*1e3, rel*100)
				}
			})
		}
	}
}

// TestRF1WindowIsZero: with one replica a write is visible everywhere the
// moment it is applied, so no acknowledged write leaves an inconsistency
// window, under load, on several nodes and at every write level.
func TestRF1WindowIsZero(t *testing.T) {
	for _, cl := range []ConsistencyLevel{ConsistencyOne, ConsistencyAll} {
		spec := DefaultScenarioSpec()
		spec.Duration = time.Minute
		spec.Store.ReplicationFactor = 1
		spec.Store.WriteConsistency = cl
		spec.Controller.Mode = ControllerNone
		rep := runScenario(t, spec)
		if rep.Writes == 0 {
			t.Fatalf("CL=%s: no writes", cl)
		}
		if rep.Window != (LatencySummary{}) {
			t.Errorf("CL=%s: RF=1 window %+v, want all zero", cl, rep.Window)
		}
	}
}
