package autonosql

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestKnowledgeBaseVetoesHarmfulScaleOut pins, end to end, the knowledge
// base's one decision-changing output. Under a diurnal load with a spike on
// small nodes, the scale-outs that bootstrap new nodes make the window worse;
// once two have settled, the smart controller's audit trail must show the
// planner refusing add-node because the knowledge base rates it harmful.
// Without the veto the controller keeps scaling out; the measured effect on
// cost and failed writes is in EXPERIMENTS.md (knowledge-base ablation).
func TestKnowledgeBaseVetoesHarmfulScaleOut(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Seed = 1
	spec.Duration = 4 * time.Minute
	spec.Cluster.InitialNodes = 3
	spec.Cluster.MaxNodes = 10
	spec.Cluster.NodeOpsPerSec = 2000
	spec.Workload.Pattern = LoadDiurnalSpike
	spec.Workload.BaseOpsPerSec = 1000
	spec.Workload.PeakOpsPerSec = 2800
	spec.Workload.ReadFraction = 0.6
	spec.Workload.Keyspace = 8000
	spec.SLA.MaxWindowP95 = 150 * time.Millisecond
	spec.Controller.Mode = ControllerSmart
	spec.Observe = &ObserveSpec{Audit: true}

	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Stop at the first harmful veto: the rest of the run adds nothing.
	vetoed := errors.New("vetoed")
	sc.OnSample(func(SampleWindow) error {
		for _, e := range auditEntries(sc.smart.Audit()) {
			for _, v := range e.Vetoes {
				if v.Kind == "add-node" && v.Reason == "knowledge base rates the action harmful" {
					return vetoed
				}
			}
		}
		return nil
	})
	if _, err := sc.Run(); !errors.Is(err, vetoed) {
		var trail []string
		for _, e := range auditEntries(sc.smart.Audit()) {
			trail = append(trail, e.String())
		}
		t.Fatalf("run ended (%v) with no add-node veto from the knowledge base:\n%s", err, strings.Join(trail, "\n"))
	}
}

// TestSmartControllerTightensWriteConsistency pins the paper's central knob
// end to end: with an SLA window bound tighter than CL=ONE replication can
// hold on an idle cluster, the smart controller attributes the window to
// loose consistency and raises the write level through the store actuator.
func TestSmartControllerTightensWriteConsistency(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Seed = 1
	spec.Duration = time.Minute
	spec.Workload.BaseOpsPerSec = 1500
	spec.SLA.MaxWindowP95 = 3 * time.Millisecond
	spec.Controller.Mode = ControllerSmart

	rep := runScenario(t, spec)
	if len(rep.Decisions) == 0 || !strings.Contains(rep.Decisions[0], "tighten-write-cl") ||
		!strings.Contains(rep.Decisions[0], "applied") {
		t.Fatalf("decisions = %q, want an applied tighten-write-cl first", rep.Decisions)
	}
	if got := rep.FinalConfiguration; got.ReadConsistency != ConsistencyOne || got.WriteConsistency != ConsistencyTwo {
		t.Fatalf("final cl = %s/%s, want ONE/TWO", got.ReadConsistency, got.WriteConsistency)
	}
}
