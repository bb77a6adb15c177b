package core

import (
	"strings"
	"testing"
	"time"

	"autonosql/internal/tenant"
)

// tenantSignal builds a Signal for one class with the given window (seconds).
func tenantSignal(name string, class tenant.Class, windowP95 float64) tenant.Signal {
	spec := class.Spec()
	return tenant.Signal{
		Name:             name,
		Class:            class,
		SLA:              spec.SLA,
		PenaltyPerMinute: spec.PenaltyPerMinute,
		WindowP95:        windowP95,
	}
}

// TestAnalyzerPicksWorstPenaltyWeightedTenant pins the tentpole behaviour:
// with tenants on the snapshot, the analysis is driven by the worst
// penalty-weighted tenant — a gold tenant near its tight bound outranks a
// bronze tenant that is further past its loose one in absolute terms.
func TestAnalyzerPicksWorstPenaltyWeightedTenant(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	snap := makeSnapshot(snapshotOpts{
		at:        time.Minute,
		windowP95: 0.010, // aggregate estimate looks healthy
		meanUtil:  0.5,
	})
	snap.Tenants = []tenant.Signal{
		// 0.30s vs gold bound 0.15s: ratio 2, weight 4 -> urgency 8.
		tenantSignal("gold", tenant.Gold, 0.30),
		// 3.0s vs bronze bound 1.5s: ratio 2, weight 0.2 -> urgency 0.4.
		tenantSignal("bronze", tenant.Bronze, 3.0),
	}
	an := a.Analyze(snap)
	if an.Tenant != "gold" {
		t.Errorf("driving tenant = %q, want gold", an.Tenant)
	}
	if an.TenantClass != string(tenant.Gold) {
		t.Errorf("driving class = %q, want gold", an.TenantClass)
	}
	if an.Primary != ConditionWindowHigh {
		t.Errorf("primary = %v, want window-high (gold window at 2x its bound)", an.Primary)
	}
	if !an.GoldViolation {
		t.Error("gold tenant at 2x its window bound not flagged as gold violation")
	}
}

// TestAnalyzerSingleTenantUnchanged pins back-compat: without tenant
// signals, the analysis carries no tenant attribution and classifies from
// the aggregate as before.
func TestAnalyzerSingleTenantUnchanged(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{at: time.Minute, windowP95: 0.010, meanUtil: 0.5}))
	if an.Tenant != "" || an.TenantClass != "" || an.GoldViolation {
		t.Errorf("single-tenant analysis carries tenant attribution: %+v", an)
	}
	if an.Primary != ConditionNominal {
		t.Errorf("primary = %v, want nominal", an.Primary)
	}
}

// TestPlannerVetoesScaleInDuringGoldViolation pins the scale-in veto: an
// over-provisioned cluster is normally shrunk, but not while a gold tenant
// is in violation.
func TestPlannerVetoesScaleInDuringGoldViolation(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnablePrediction = false
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 8, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}

	an := Analysis{
		At:      30 * time.Minute,
		Primary: ConditionOverProvisioned,
		Cause:   CauseExcessCapacity,
	}
	if action := p.Plan(an, plant); action.Kind != ActionRemoveNode {
		t.Fatalf("without gold violation: planned %v, want remove-node", action.Kind)
	}
	an.GoldViolation = true
	if action := p.Plan(an, plant); action.Kind == ActionRemoveNode {
		t.Fatalf("gold violation did not veto scale-in: planned %v", action)
	}
}

// TestDecisionStringNamesTenant pins the decision log format: multi-tenant
// decisions name the driving tenant and flag gold violations.
func TestDecisionStringNamesTenant(t *testing.T) {
	d := Decision{
		At:     time.Minute,
		Action: Action{Kind: ActionAddNode, Reason: "window high"},
		Analysis: Analysis{
			Tenant:        "checkout",
			TenantClass:   "gold",
			GoldViolation: true,
		},
	}
	s := d.String()
	if !strings.Contains(s, "tenant=checkout(gold)") || !strings.Contains(s, "gold-violation") {
		t.Errorf("decision string lacks tenant attribution: %s", s)
	}
	d.Analysis.Tenant = ""
	if strings.Contains(d.String(), "tenant=") {
		t.Errorf("single-tenant decision string carries tenant attribution: %s", d.String())
	}
}
