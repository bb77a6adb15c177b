package core

import (
	"testing"
	"time"

	"autonosql/internal/store"
	"autonosql/internal/tenant"
)

func defaultPlant() PlantState {
	return PlantState{ClusterSize: 3, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One}
}

// analyze is a shortcut that runs a fresh analyzer over a single snapshot so
// planner tests exercise the same classification path the controller uses.
func analyze(cfg Config, o snapshotOpts) Analysis {
	return NewAnalyzer(cfg).Analyze(makeSnapshot(o))
}

func TestPlannerNominalDoesNothing(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.02, readP99: 0.005, writeP99: 0.005, meanUtil: 0.5})
	if a := p.Plan(an, defaultPlant()); !a.IsNoop() {
		t.Fatalf("nominal state planned %v", a)
	}
}

func TestPlannerWindowHighSaturationAddsNode(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95})
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionAddNode {
		t.Fatalf("planned %v, want add-node", a)
	}
}

func TestPlannerWindowHighSaturationAtMaxNodesTightensConsistency(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.MaxNodes = 3
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95})
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionTightenWriteConsistency {
		t.Fatalf("planned %v, want tighten-write-cl when the cluster cannot grow", a)
	}
	if want := "window high, nodes saturated, cluster at maximum"; a.Reason != want {
		t.Fatalf("reason %q, want %q", a.Reason, want)
	}
}

func TestPlannerWindowHighCongestionAvoidsScaling(t *testing.T) {
	// The paper's canonical wrong action: growing the cluster (or the
	// replication factor) under network congestion. The planner must pick a
	// consistency-level change instead.
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.02, meanUtil: 0.2})
	if an.Cause != CauseNetworkCongestion {
		t.Fatalf("precondition: cause = %v, want network-congestion", an.Cause)
	}
	a := p.Plan(an, defaultPlant())
	if a.Kind == ActionAddNode {
		t.Fatalf("planner chose %v under network congestion", a)
	}
	if a.Kind != ActionTightenWriteConsistency {
		t.Fatalf("planned %v, want tighten-write-cl", a)
	}
}

func TestPlannerWindowHighCongestionStrictConsistencyNoops(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.02, meanUtil: 0.2, writeCL: store.All})
	plant := defaultPlant()
	plant.WriteConsistency = store.All
	a := p.Plan(an, plant)
	if !a.IsNoop() {
		t.Fatalf("with ALL consistency under congestion the planner should wait, planned %v", a)
	}
}

func TestPlannerWindowHighLooseConsistencyTightens(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2})
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionTightenWriteConsistency {
		t.Fatalf("planned %v, want tighten-write-cl", a)
	}
}

func TestPlannerTightenRefusedWhenWriteLatencyNearSLA(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	// Window high with idle CPU, but write latency is already at 97% of its
	// limit: tightening would trade one violation for another.
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.029, meanUtil: 0.2})
	a := p.Plan(an, defaultPlant())
	if a.Kind == ActionTightenWriteConsistency {
		t.Fatalf("tightened write consistency with write latency at the SLA edge")
	}
}

func TestPlannerAvailabilityAddsNode(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.1, readP99: 0.01, writeP99: 0.01, errorRate: 0.2, meanUtil: 0.9})
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionAddNode {
		t.Fatalf("planned %v, want add-node for availability", a)
	}
}

func TestPlannerAvailabilityAtMaxRelaxesWrites(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.MaxNodes = 3
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.1, readP99: 0.01, writeP99: 0.01, errorRate: 0.2, meanUtil: 0.9, writeCL: store.Quorum})
	plant := defaultPlant()
	plant.WriteConsistency = store.Quorum
	a := p.Plan(an, plant)
	if a.Kind != ActionRelaxWriteConsistency {
		t.Fatalf("planned %v, want relax-write-cl when the cluster cannot grow", a)
	}
}

func TestPlannerLatencyHighFromStrictConsistencyRelaxes(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.01, readP99: 0.002, writeP99: 0.05, meanUtil: 0.2, writeCL: store.All})
	plant := defaultPlant()
	plant.WriteConsistency = store.All
	a := p.Plan(an, plant)
	if a.Kind != ActionRelaxWriteConsistency {
		t.Fatalf("planned %v, want relax-write-cl", a)
	}
}

func TestPlannerLatencyHighCongestionWaits(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.01, readP99: 0.05, writeP99: 0.05, meanUtil: 0.2})
	if an.Cause != CauseNetworkCongestion {
		t.Fatalf("precondition: cause = %v", an.Cause)
	}
	a := p.Plan(an, defaultPlant())
	if !a.IsNoop() {
		t.Fatalf("planned %v under congested network, want none", a)
	}
}

func TestPlannerOverProvisionedRemovesNode(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnablePrediction = false
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.005, readP99: 0.001, writeP99: 0.001, meanUtil: 0.1, clusterSize: 8})
	plant := PlantState{ClusterSize: 8, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One}
	a := p.Plan(an, plant)
	if a.Kind != ActionRemoveNode {
		t.Fatalf("planned %v, want remove-node", a)
	}
}

func TestPlannerOverProvisionedRespectsMinNodesAndRF(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnablePrediction = false
	cfg.MinNodes = 3
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.005, readP99: 0.001, writeP99: 0.001, meanUtil: 0.1})
	a := p.Plan(an, defaultPlant()) // 3 nodes, RF 3
	if a.Kind == ActionRemoveNode {
		t.Fatal("removed a node at the minimum cluster size")
	}
}

func TestPlannerOverProvisionedKeepsCapacityForForecast(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.NodeCapacityOpsPerSec = 1000
	p := NewPlanner(cfg)
	analyzer := NewAnalyzer(cfg)
	// Feed a rising load history so the forecast stays high even though the
	// instantaneous utilisation is low.
	var an Analysis
	for i := 1; i <= 10; i++ {
		an = analyzer.Analyze(makeSnapshot(snapshotOpts{
			at: time.Duration(i) * 10 * time.Second, windowP95: 0.005,
			readP99: 0.001, writeP99: 0.001, meanUtil: 0.1,
			opsPerSec: float64(i) * 600, clusterSize: 8,
		}))
	}
	if an.Primary != ConditionOverProvisioned {
		t.Fatalf("precondition: primary = %v", an.Primary)
	}
	plant := PlantState{ClusterSize: 8, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One}
	a := p.Plan(an, plant)
	if a.Kind == ActionRemoveNode {
		t.Fatal("scaled in despite a forecast that needs the capacity")
	}
}

func TestPlannerPredictiveScaleOut(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.NodeCapacityOpsPerSec = 1000
	p := NewPlanner(cfg)
	analyzer := NewAnalyzer(cfg)
	var an Analysis
	for i := 1; i <= 12; i++ {
		an = analyzer.Analyze(makeSnapshot(snapshotOpts{
			at: time.Duration(i) * 10 * time.Second, windowP95: 0.02,
			readP99: 0.005, writeP99: 0.005, meanUtil: 0.55,
			opsPerSec: 1500 + float64(i)*150,
		}))
	}
	if an.Primary != ConditionNominal {
		t.Fatalf("precondition: primary = %v, want nominal", an.Primary)
	}
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionAddNode {
		t.Fatalf("planned %v, want predictive add-node", a)
	}

	// With prediction disabled the same state plans nothing.
	cfgNoPred := cfg
	cfgNoPred.EnablePrediction = false
	p2 := NewPlanner(cfgNoPred)
	if a2 := p2.Plan(an, defaultPlant()); !a2.IsNoop() {
		t.Fatalf("prediction disabled but planned %v", a2)
	}
}

func TestPlannerCooldownBlocksRepeatedScaleOut(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 100 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95})
	a := p.Plan(an, defaultPlant())
	if a.Kind != ActionAddNode {
		t.Fatalf("first plan = %v, want add-node", a)
	}
	p.kb.RecordApplied(a, an.At)

	// Same situation 10 s later: the scale-out cooldown (90 s) blocks another
	// node addition; the planner falls back to tightening consistency.
	an2 := analyze(cfg, snapshotOpts{at: 110 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95})
	a2 := p.Plan(an2, PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One})
	if a2.Kind == ActionAddNode {
		t.Fatal("scale-out cooldown not enforced")
	}
}

// TestPlannerCooldownFallbackReason pins the reason of the fallback when
// add-node is refused by its cooldown, four nodes short of MaxNodes: the
// consistency is tightened, and the reason does not claim the cluster is at
// its maximum.
func TestPlannerCooldownFallbackReason(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.MaxNodes = 8
	p := NewPlanner(cfg)
	snap := snapshotOpts{at: 100 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95}
	an := analyze(cfg, snap)
	p.kb.RecordApplied(Action{Kind: ActionAddNode, Scope: ClusterScope(), Count: 1}, an.At)
	snap.at += 10 * time.Second
	an2 := analyze(cfg, snap)
	a := p.Plan(an2, PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One})
	if a.Kind != ActionTightenWriteConsistency {
		t.Fatalf("planned %v in the scale-out cooldown, want tighten-write-cl", a)
	}
	if want := "window high, nodes saturated, scale-out blocked"; a.Reason != want {
		t.Fatalf("reason %q, want %q", a.Reason, want)
	}
}

func TestPlannerScalingDisabled(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableScaling = false
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95})
	a := p.Plan(an, defaultPlant())
	if a.Kind == ActionAddNode || a.Kind == ActionRemoveNode {
		t.Fatalf("scaling disabled but planned %v", a)
	}
}

func TestPlannerConsistencyActionsDisabled(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableConsistencyActions = false
	p := NewPlanner(cfg)
	an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2})
	a := p.Plan(an, defaultPlant())
	if a.Kind == ActionTightenWriteConsistency || a.Kind == ActionRelaxWriteConsistency {
		t.Fatalf("consistency actions disabled but planned %v", a)
	}
}

// TestPlannerEmitsEveryActionKind judges the action vocabulary: every kind
// ActionKinds lists must be one Planner.Plan actually returns, from some
// synthetic analysis, plant and planner history. A kind with no row here is
// a knob no controller run can turn, and fails the test.
func TestPlannerEmitsEveryActionKind(t *testing.T) {
	admission := func() Config {
		cfg := DefaultConfig(testSLA())
		cfg.EnableAdmissionControl = true
		cfg.EnablePlacementActions = true
		return cfg
	}
	tenantPlant := PlantState{ClusterSize: 5, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One}
	recovered := func(at time.Duration, throttled []ThrottledTenant) Analysis {
		an := Analysis{
			At:       at,
			Snapshot: makeSnapshot(snapshotOpts{at: at, windowP95: 0.01, meanUtil: 0.5}),
			Primary:  ConditionNominal,
			Tenant:   "gold", TenantClass: string(tenant.Gold),
			Throttled: throttled,
		}
		an.Snapshot.Tenants = []tenant.Signal{tenantSignal("gold", tenant.Gold, 0.01)}
		return an
	}
	rows := map[ActionKind]func() Action{
		ActionTightenWriteConsistency: func() Action {
			cfg := DefaultConfig(testSLA())
			an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2})
			return NewPlanner(cfg).Plan(an, defaultPlant())
		},
		ActionRelaxWriteConsistency: func() Action {
			cfg := DefaultConfig(testSLA())
			an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.01, readP99: 0.002, writeP99: 0.05, meanUtil: 0.2, writeCL: store.All})
			plant := defaultPlant()
			plant.WriteConsistency = store.All
			return NewPlanner(cfg).Plan(an, plant)
		},
		// Window high with idle resources and the write level already at
		// ALL: the read level is the only consistency knob left.
		ActionTightenReadConsistency: func() Action {
			cfg := DefaultConfig(testSLA())
			an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2, writeCL: store.All})
			if an.Primary != ConditionWindowHigh || an.Cause != CauseLooseConsistency {
				t.Fatalf("tighten-read precondition: %v / %v, want window-high / loose-consistency", an.Primary, an.Cause)
			}
			plant := defaultPlant()
			plant.WriteConsistency = store.All
			a := NewPlanner(cfg).Plan(an, plant)
			if a.Reason != "window high, write consistency already strict" {
				t.Errorf("tighten-read reason = %q", a.Reason)
			}
			return a
		},
		ActionAddNode: func() Action {
			cfg := DefaultConfig(testSLA())
			an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.1, readP99: 0.01, writeP99: 0.01, errorRate: 0.2, meanUtil: 0.9})
			return NewPlanner(cfg).Plan(an, defaultPlant())
		},
		ActionRemoveNode: func() Action {
			cfg := DefaultConfig(testSLA())
			cfg.EnablePrediction = false
			an := analyze(cfg, snapshotOpts{at: 10 * time.Second, windowP95: 0.005, readP99: 0.001, writeP99: 0.001, meanUtil: 0.1, clusterSize: 8})
			return NewPlanner(cfg).Plan(an, PlantState{ClusterSize: 8, ReplicationFactor: 3, ReadConsistency: store.One, WriteConsistency: store.One})
		},
		ActionThrottleTenant: func() Action {
			return NewPlanner(admission()).Plan(protectionAnalysis(10*time.Minute), tenantPlant)
		},
		// A throttle that has stopped binding is released once the holdoff
		// has run since the planner first saw it non-binding.
		ActionUnthrottleTenant: func() Action {
			cfg := admission()
			p := NewPlanner(cfg)
			throttled := []ThrottledTenant{{Name: "bronze", Rate: 500, Offered: 300}}
			p.Plan(recovered(20*time.Minute, throttled), tenantPlant)
			return p.Plan(recovered(20*time.Minute+cfg.UnthrottleHoldoff, throttled), tenantPlant)
		},
		// Gold still at risk with no throttle left to impose or tighten.
		ActionPinTenantClass: func() Action {
			cfg := admission()
			an := protectionAnalysis(10 * time.Minute)
			an.ThrottleCandidate = ""
			an.Throttled = []ThrottledTenant{{Name: "bronze", Rate: cfg.MinThrottleRate, Offered: 1000}}
			return NewPlanner(cfg).Plan(an, tenantPlant)
		},
		ActionUnpinTenantClass: func() Action {
			plant := tenantPlant
			plant.PinnedClass = string(tenant.Gold)
			return NewPlanner(admission()).Plan(recovered(30*time.Minute, nil), plant)
		},
	}
	for _, kind := range ActionKinds() {
		row, ok := rows[kind]
		if !ok {
			t.Errorf("ActionKinds lists %v, but no row makes Planner.Plan emit it", kind)
			continue
		}
		if got := row(); got.Kind != kind {
			t.Errorf("row for %v: planned %v", kind, got)
		}
		delete(rows, kind)
	}
	for kind := range rows {
		t.Errorf("row for %v, which ActionKinds does not list", kind)
	}
}
