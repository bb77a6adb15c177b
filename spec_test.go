package autonosql

import (
	"testing"
	"time"
)

func TestDefaultScenarioSpecValidates(t *testing.T) {
	if err := DefaultScenarioSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestSpecValidationRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
	}{
		{"zero duration", func(s *ScenarioSpec) { s.Duration = 0 }},
		{"negative base rate", func(s *ScenarioSpec) { s.Workload.BaseOpsPerSec = -1 }},
		{"negative peak rate", func(s *ScenarioSpec) { s.Workload.PeakOpsPerSec = -1 }},
		{"read fraction above one", func(s *ScenarioSpec) { s.Workload.ReadFraction = 1.5 }},
		{"negative keyspace", func(s *ScenarioSpec) { s.Workload.Keyspace = -1 }},
		{"no nodes", func(s *ScenarioSpec) { s.Cluster.InitialNodes = 0 }},
		{"no replication", func(s *ScenarioSpec) { s.Store.ReplicationFactor = 0 }},
		{"replication beyond a window's count", func(s *ScenarioSpec) { s.Store.ReplicationFactor = 1 << 15 }},
		{"bad read consistency", func(s *ScenarioSpec) { s.Store.ReadConsistency = "SOMETIMES" }},
		{"bad write consistency", func(s *ScenarioSpec) { s.Store.WriteConsistency = "NEVER" }},
		{"bad controller mode", func(s *ScenarioSpec) { s.Controller.Mode = "clever" }},
		{"bad load pattern", func(s *ScenarioSpec) { s.Workload.Pattern = "sawtooth" }},
		{"bad key distribution", func(s *ScenarioSpec) { s.Workload.Keys = "gaussian" }},
		{"unconstrained sla", func(s *ScenarioSpec) { s.SLA = SLASpec{NodeCostPerHour: 1} }},
		{"negative cost", func(s *ScenarioSpec) { s.SLA.NodeCostPerHour = -1 }},
	}
	for _, tc := range cases {
		spec := DefaultScenarioSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: spec validated but should not", tc.name)
		}
		if _, err := NewScenario(spec); err == nil {
			t.Errorf("%s: NewScenario accepted an invalid spec", tc.name)
		}
	}
}

func TestConsistencyLevelConversion(t *testing.T) {
	levels := []ConsistencyLevel{ConsistencyOne, ConsistencyTwo, ConsistencyQuorum, ConsistencyAll}
	for _, l := range levels {
		internal, err := l.toStore()
		if err != nil {
			t.Fatalf("toStore(%s): %v", l, err)
		}
		if back := consistencyFromStore(internal); back != l {
			t.Errorf("round trip %s -> %v -> %s", l, internal, back)
		}
	}
	// Empty means the store default (ONE).
	if cl, err := ConsistencyLevel("").toStore(); err != nil || cl.String() != "ONE" {
		t.Errorf("empty level = %v, %v; want ONE", cl, err)
	}
	if _, err := ConsistencyLevel("MAYBE").toStore(); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestLoadProfileSelection(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Duration = 10 * time.Minute
	spec.Workload.BaseOpsPerSec = 100
	spec.Workload.PeakOpsPerSec = 1000

	cases := []struct {
		pattern  LoadPattern
		at       time.Duration
		min, max float64
	}{
		{LoadConstant, time.Minute, 99, 101},
		{LoadStep, time.Minute, 99, 101},                   // before the step
		{LoadStep, 5*time.Minute + time.Second, 999, 1001}, // inside the step
		{LoadDiurnal, 5 * time.Minute, 900, 1001},          // near the crest
		{LoadSpike, time.Minute, 99, 101},
		{LoadDiurnalSpike, time.Minute, 99, 1100},
	}
	for _, tc := range cases {
		spec.Workload.Pattern = tc.pattern
		rate := loadProfileFor(spec.Workload, spec.Duration).Rate(tc.at)
		if rate < tc.min || rate > tc.max {
			t.Errorf("%s at %v: rate = %v, want in [%v, %v]", tc.pattern, tc.at, rate, tc.min, tc.max)
		}
	}
}

func TestControllerConfigDerivation(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Cluster.MinNodes = 4
	spec.Cluster.MaxNodes = 12
	spec.Cluster.NodeOpsPerSec = 7000
	spec.Cluster.BootstrapTime = 45 * time.Second
	spec.Controller.Predictive = true
	spec.Controller.AllowConsistencyChanges = false

	cfg := spec.controllerConfig()
	if cfg.MinNodes != 4 || cfg.MaxNodes != 12 {
		t.Errorf("node bounds = %d..%d, want 4..12", cfg.MinNodes, cfg.MaxNodes)
	}
	// The controller's capacity belief is expressed in client operations per
	// second: with a 50/50 mix at RF=3 each client operation costs 2.625 node
	// operations, so a 7000 ops/s node contributes 7000/2.625 client ops/s.
	if cfg.NodeCapacityOpsPerSec < 2666 || cfg.NodeCapacityOpsPerSec > 2667 {
		t.Errorf("node capacity = %v, want ~2666.7 (effective client-op capacity)", cfg.NodeCapacityOpsPerSec)
	}
	if cfg.PredictionHorizon != 90*time.Second {
		t.Errorf("prediction horizon = %v, want 90s (2x bootstrap)", cfg.PredictionHorizon)
	}
	if cfg.EnableConsistencyActions {
		t.Error("consistency actions should be disabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("derived controller config invalid: %v", err)
	}
}

func TestCostModelDefaultsWhenUnspecified(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.SLA.NodeCostPerHour = 0
	spec.SLA.StaleReadCompensation = 0
	spec.SLA.ViolationPenaltyPerMinute = 0
	m := spec.costModel()
	if m.NodeCostPerHour <= 0 {
		t.Fatal("unspecified cost model should fall back to defaults")
	}
}

// TestShardSpecValidation pins that the deprecated Shards field, though
// ignored, still rejects negative values.
func TestShardSpecValidation(t *testing.T) {
	spec := DefaultScenarioSpec()
	spec.Shards = -1
	if _, err := NewScenario(spec); err == nil {
		t.Fatal("NewScenario accepted negative Shards")
	}
}
