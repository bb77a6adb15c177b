package core

import (
	"strings"
	"testing"
	"time"

	"autonosql/internal/tenant"
)

// TestKnowledgeBaseScopedCooldowns pins the cooldown-bookkeeping fix:
// cooldowns key on (kind, scope), so throttling tenant A must not put tenant
// B's throttle in cooldown, while cluster-scoped queries keep their exact
// pre-scope behaviour.
func TestKnowledgeBaseScopedCooldowns(t *testing.T) {
	kb := NewKnowledgeBase()
	a := TenantScope("a")
	b := TenantScope("b")

	kb.RecordApplied(Action{Kind: ActionThrottleTenant, Scope: a, Rate: 100}, 10*time.Minute)

	if !kb.InCooldown(ActionThrottleTenant, a, 10*time.Minute+time.Second, time.Minute) {
		t.Error("throttling tenant a did not start tenant a's cooldown")
	}
	if kb.InCooldown(ActionThrottleTenant, b, 10*time.Minute+time.Second, time.Minute) {
		t.Error("throttling tenant a put tenant b's throttle in cooldown")
	}
	if kb.InCooldown(ActionThrottleTenant, ClusterScope(), 10*time.Minute+time.Second, time.Minute) {
		t.Error("tenant-scoped action leaked into the cluster-scoped cooldown")
	}
	if _, ok := kb.LastApplied(ActionThrottleTenant, a); !ok {
		t.Error("LastApplied lost the tenant-a application")
	}
	if _, ok := kb.LastApplied(ActionThrottleTenant, b); ok {
		t.Error("LastApplied invented a tenant-b application")
	}

	// Cluster-scoped actions stay keyed on the empty scope.
	kb.RecordApplied(Action{Kind: ActionAddNode}, 20*time.Minute)
	if !kb.InCooldown(ActionAddNode, ClusterScope(), 20*time.Minute+time.Second, time.Minute) {
		t.Error("cluster-scoped cooldown broken")
	}
	if at, ok := kb.LastApplied(ActionAddNode, ClusterScope()); !ok || at != 20*time.Minute {
		t.Errorf("LastApplied = %v, %v", at, ok)
	}
}

// TestActionStringScoped pins the decision-log rendering of scoped actions:
// the scope target and, for throttles, the admitted rate are named.
func TestActionStringScoped(t *testing.T) {
	a := Action{Kind: ActionThrottleTenant, Scope: TenantScope("batch"), Rate: 400, Reason: "x"}
	if s := a.String(); !strings.Contains(s, "throttle-tenant[batch @400ops/s]") {
		t.Errorf("throttle action renders %q", s)
	}
	p := Action{Kind: ActionPinTenantClass, Scope: ClassScope("gold")}
	if s := p.String(); !strings.Contains(s, "pin-class[gold]") {
		t.Errorf("pin action renders %q", s)
	}
	if s := (Action{Kind: ActionAddNode, Reason: "y"}).String(); strings.Contains(s, "[") {
		t.Errorf("cluster-scoped action grew a scope suffix: %q", s)
	}
	if ClusterScope().String() != "cluster" || TenantScope("a").String() != "tenant a" ||
		ClassScope("gold").String() != "class gold" {
		t.Error("Scope.String changed")
	}
}

// protectionAnalysis builds an Analysis in which a gold tenant is in
// violation and a bronze tenant offers throttleable load.
func protectionAnalysis(at time.Duration) Analysis {
	gold := tenantSignal("gold", tenant.Gold, 0.30)
	bronze := tenantSignal("bronze", tenant.Bronze, 0.10)
	bronze.OfferedOpsPerSec = 1000
	snap := makeSnapshot(snapshotOpts{at: at, windowP95: 0.30, meanUtil: 0.9})
	snap.Tenants = []tenant.Signal{gold, bronze}
	return Analysis{
		At:                    at,
		Snapshot:              snap,
		Primary:               ConditionWindowHigh,
		Cause:                 CauseCPUSaturation,
		Tenant:                "gold",
		TenantClass:           string(tenant.Gold),
		GoldViolation:         true,
		ThrottleCandidate:     "bronze",
		ThrottleCandidateRate: 1000,
	}
}

// TestPlannerThrottlesBeforeScaling pins the tentpole ordering: with
// admission control enabled and a gold tenant in violation, the planner
// sheds the noisy neighbour instead of reaching for capacity.
func TestPlannerThrottlesBeforeScaling(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}

	a := p.Plan(protectionAnalysis(10*time.Minute), plant)
	if a.Kind != ActionThrottleTenant || a.Scope.Tenant != "bronze" {
		t.Fatalf("planned %v, want throttle-tenant[bronze]", a)
	}
	if want := 1000 * cfg.ThrottleFraction; a.Rate != want {
		t.Errorf("throttle rate = %v, want %v", a.Rate, want)
	}

	// Without admission control the same analysis falls through to the
	// cluster-wide window branch (add-node under CPU saturation).
	cfg.EnableAdmissionControl = false
	p2 := NewPlanner(cfg)
	if a := p2.Plan(protectionAnalysis(10*time.Minute), plant); a.Kind != ActionAddNode {
		t.Fatalf("with admission off: planned %v, want add-node", a)
	}
}

// TestPlannerThrottleCooldownPerTenant is the planner-level regression for
// the cooldown fix: throttling tenant A in one interval must not block
// throttling tenant B in the next.
func TestPlannerThrottleCooldownPerTenant(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}

	an := protectionAnalysis(10 * time.Minute)
	first := p.Plan(an, plant)
	if first.Kind != ActionThrottleTenant || first.Scope.Tenant != "bronze" {
		t.Fatalf("planned %v, want throttle-tenant[bronze]", first)
	}
	p.kb.RecordApplied(first, an.At)

	// Ten seconds later bronze is throttled and a silver tenant is now the
	// candidate; its throttle must be available immediately.
	an2 := protectionAnalysis(10*time.Minute + 10*time.Second)
	an2.ThrottleCandidate = "silver"
	an2.ThrottleCandidateRate = 600
	an2.Throttled = []ThrottledTenant{{Name: "bronze", Rate: 500, Offered: 1000}}
	second := p.Plan(an2, plant)
	if second.Kind != ActionThrottleTenant || second.Scope.Tenant != "silver" {
		t.Fatalf("tenant-a cooldown blocked tenant b: planned %v, want throttle-tenant[silver]", second)
	}
}

// TestPlannerUnthrottleOnRecovery pins the release path: a throttle is
// lifted only once it has stopped binding (the tenant offers less than the
// bucket admits) for the full holdoff — a one-interval dip mid-burst never
// releases it, and binding again resets the clock.
func TestPlannerUnthrottleOnRecovery(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}
	p.kb.RecordApplied(Action{Kind: ActionThrottleTenant, Scope: TenantScope("bronze"), Rate: 500}, 10*time.Minute)

	recoveredAt := func(at time.Duration, offered float64) Analysis {
		an := Analysis{
			At:       at,
			Snapshot: makeSnapshot(snapshotOpts{at: at, windowP95: 0.01, meanUtil: 0.5}),
			Primary:  ConditionNominal,
			Tenant:   "gold", TenantClass: string(tenant.Gold),
			Throttled: []ThrottledTenant{{Name: "bronze", Rate: 500, Offered: offered}},
		}
		an.Snapshot.Tenants = []tenant.Signal{tenantSignal("gold", tenant.Gold, 0.01)}
		return an
	}

	// Still binding: never released, however old the throttle is.
	if a := p.Plan(recoveredAt(20*time.Minute, 1000), plant); a.Kind == ActionUnthrottleTenant {
		t.Fatalf("released a still-binding throttle: %v", a)
	}
	// First non-binding observation only starts the holdoff clock.
	if a := p.Plan(recoveredAt(20*time.Minute+10*time.Second, 300), plant); a.Kind == ActionUnthrottleTenant {
		t.Fatalf("released on the first non-binding observation: %v", a)
	}
	// A dip that rebinds resets the clock.
	if a := p.Plan(recoveredAt(20*time.Minute+20*time.Second, 1000), plant); a.Kind == ActionUnthrottleTenant {
		t.Fatalf("released while binding again: %v", a)
	}
	if a := p.Plan(recoveredAt(20*time.Minute+30*time.Second, 300), plant); a.Kind == ActionUnthrottleTenant {
		t.Fatalf("dip did not reset the holdoff clock: %v", a)
	}
	// Non-binding for the full holdoff: released.
	at := 20*time.Minute + 30*time.Second + cfg.UnthrottleHoldoff
	if a := p.Plan(recoveredAt(at, 300), plant); a.Kind != ActionUnthrottleTenant || a.Scope.Tenant != "bronze" {
		t.Fatalf("planned %v, want unthrottle-tenant[bronze]", a)
	}
}

// TestPlannerSkipsNonBindingThrottle pins the floor interaction: a candidate
// whose clamped rate would admit everything it offers is not throttled — the
// action could shed nothing and would only burn the interval and the
// per-tenant cooldown.
func TestPlannerSkipsNonBindingThrottle(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 4, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}

	an := protectionAnalysis(10 * time.Minute)
	an.ThrottleCandidateRate = cfg.MinThrottleRate * 0.8 // floor-clamped rate >= offered
	if a := p.Plan(an, plant); a.Kind == ActionThrottleTenant {
		t.Fatalf("planned a throttle that cannot bind: %v", a)
	}
}

// TestPlannerPinsClassWhenThrottleUnavailable pins the escalation: with
// placement enabled and no throttle candidate left, a persisting gold
// violation dedicates nodes to the gold class; on recovery the pin is
// lifted only after every throttle is released.
func TestPlannerPinsClassWhenThrottleUnavailable(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	cfg.EnablePlacementActions = true
	p := NewPlanner(cfg)
	plant := PlantState{ClusterSize: 5, ReplicationFactor: 3, ReadConsistency: 1, WriteConsistency: 1}

	an := protectionAnalysis(10 * time.Minute)
	an.ThrottleCandidate = "" // everyone already throttled (or gold-only)
	// At the floor: no tightening possible even though the throttle binds.
	an.Throttled = []ThrottledTenant{{Name: "bronze", Rate: cfg.MinThrottleRate, Offered: 1000}}
	if a := p.Plan(an, plant); a.Kind != ActionPinTenantClass || a.Scope.Class != string(tenant.Gold) {
		t.Fatalf("planned %v, want pin-class[gold]", a)
	}

	// Recovery with the class pinned but a tenant still throttled: release
	// the throttle first, the pin after.
	rec := Analysis{
		At:       30 * time.Minute,
		Snapshot: an.Snapshot,
		Primary:  ConditionNominal,
		Tenant:   "gold", TenantClass: string(tenant.Gold),
		Throttled: []ThrottledTenant{{Name: "bronze", Rate: cfg.MinThrottleRate, Offered: 10}},
	}
	pinnedPlant := plant
	pinnedPlant.PinnedClass = string(tenant.Gold)
	// First non-binding observation starts the holdoff clock; after the
	// holdoff the throttle is released before the pin.
	if a := p.Plan(rec, pinnedPlant); a.Kind != ActionNone {
		t.Fatalf("planned %v before the holdoff elapsed", a)
	}
	rec.At += cfg.UnthrottleHoldoff
	if a := p.Plan(rec, pinnedPlant); a.Kind != ActionUnthrottleTenant {
		t.Fatalf("planned %v, want unthrottle before unpin", a)
	}
	rec.Throttled = nil
	if a := p.Plan(rec, pinnedPlant); a.Kind != ActionUnpinTenantClass || a.Scope.Class != string(tenant.Gold) {
		t.Fatalf("planned %v, want unpin-class[gold]", a)
	}
}

// TestAnalyzerAdmissionAnnotations pins the analyzer side of the scoped
// actions: throttled tenants never drive the loop, and the throttle
// candidate is the unthrottled non-gold tenant with the most offered load
// per dollar of penalty.
func TestAnalyzerAdmissionAnnotations(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	snap := makeSnapshot(snapshotOpts{at: time.Minute, windowP95: 0.010, meanUtil: 0.5})

	gold := tenantSignal("gold", tenant.Gold, 0.30)
	silver := tenantSignal("silver", tenant.Silver, 0.05)
	silver.OfferedOpsPerSec = 400
	bronze := tenantSignal("bronze", tenant.Bronze, 0.05)
	bronze.OfferedOpsPerSec = 500
	throttled := tenantSignal("batch", tenant.Bronze, 5.0) // huge window, but self-inflicted
	throttled.Throttled = true
	throttled.ThrottleRate = 100
	throttled.ErrorRate = 0.9
	snap.Tenants = []tenant.Signal{gold, silver, bronze, throttled}

	an := a.Analyze(snap)
	if an.Tenant != "gold" {
		t.Errorf("driving tenant = %q; a throttled tenant's self-inflicted distress must not drive the loop", an.Tenant)
	}
	// bronze: 500 ops / $0.20 = 2500; silver: 400 / $1.00 = 400.
	if an.ThrottleCandidate != "bronze" || an.ThrottleCandidateRate != 500 {
		t.Errorf("candidate = %q @%v, want bronze @500", an.ThrottleCandidate, an.ThrottleCandidateRate)
	}
	if len(an.Throttled) != 1 || an.Throttled[0] != (ThrottledTenant{Name: "batch", Rate: 100}) {
		t.Errorf("throttled bookkeeping wrong: %v", an.Throttled)
	}
}

// fakeTenantActuator extends the fake plant with the scoped-action surface.
type fakeTenantActuator struct {
	*fakeActuator
	throttled map[string]float64
	pinned    string
}

func newFakeTenantActuator() *fakeTenantActuator {
	return &fakeTenantActuator{fakeActuator: newFakeActuator(), throttled: map[string]float64{}}
}

func (f *fakeTenantActuator) ThrottleTenant(name string, rate float64) error {
	f.throttled[name] = rate
	return nil
}
func (f *fakeTenantActuator) UnthrottleTenant(name string) error {
	delete(f.throttled, name)
	return nil
}
func (f *fakeTenantActuator) PinClass(class string) error { f.pinned = class; return nil }
func (f *fakeTenantActuator) UnpinClass() error           { f.pinned = ""; return nil }
func (f *fakeTenantActuator) PinnedClass() string         { return f.pinned }

var _ TenantActuator = (*fakeTenantActuator)(nil)

// TestControllerExecutesScopedActions drives one MAPE step end to end
// against the fake tenant actuator and requires the planned throttle to be
// executed on the named tenant.
func TestControllerExecutesScopedActions(t *testing.T) {
	cfg := DefaultConfig(testSLA())
	cfg.EnableAdmissionControl = true
	fta := newFakeTenantActuator()
	c, err := New(cfg, fta)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	snap := makeSnapshot(snapshotOpts{at: 10 * time.Minute, windowP95: 0.30, meanUtil: 0.9, samples: 100})
	gold := tenantSignal("gold", tenant.Gold, 0.30)
	bronze := tenantSignal("bronze", tenant.Bronze, 0.10)
	bronze.OfferedOpsPerSec = 1000
	snap.Tenants = []tenant.Signal{gold, bronze}

	d := c.Step(snap)
	if d.Action.Kind != ActionThrottleTenant || !d.Applied {
		t.Fatalf("decision %v (applied=%v), want applied throttle", d.Action, d.Applied)
	}
	rate, ok := fta.throttled["bronze"]
	if !ok || rate != d.Action.Rate {
		t.Fatalf("actuator throttled %v, want bronze @%v", fta.throttled, d.Action.Rate)
	}
	if !strings.Contains(d.String(), "throttle-tenant[bronze") {
		t.Errorf("decision string lacks scoped action: %s", d)
	}
}

// TestControllerRejectsScopedActionsWithoutTenantActuator pins the failure
// mode: a tenant-scoped action against a plain actuator fails cleanly with
// ErrNoTenantActuator instead of panicking or silently no-oping.
func TestControllerRejectsScopedActionsWithoutTenantActuator(t *testing.T) {
	c, err := New(DefaultConfig(testSLA()), newFakeActuator())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.execute(Action{Kind: ActionThrottleTenant, Scope: TenantScope("x"), Rate: 1}, PlantState{}); err != ErrNoTenantActuator {
		t.Errorf("execute returned %v, want ErrNoTenantActuator", err)
	}
}

// TestAnalyzerRanksThrottleCandidates pins the throttle-target choice: the
// unthrottled non-gold tenant with the most offered load per penalty dollar,
// ties going to the first such tenant in declaration order; throttled and
// gold tenants are never chosen, and the throttled ones are listed instead.
func TestAnalyzerRanksThrottleCandidates(t *testing.T) {
	signal := func(name string, class tenant.Class, offered float64) tenant.Signal {
		sig := tenantSignal(name, class, 0.10)
		sig.OfferedOpsPerSec = offered
		return sig
	}
	// Gold never becomes a target, however loud.
	gold := signal("gold", tenant.Gold, 5000)
	capped := signal("capped", tenant.Bronze, 400)
	capped.Throttled = true
	capped.ThrottleRate = 300

	for _, tc := range []struct {
		name     string
		sigs     []tenant.Signal
		want     string
		wantRate float64
	}{
		// Bronze: 1000 ops/s at the bronze penalty; silver: 900 ops/s at the
		// pricier silver penalty — bronze wins.
		{"penalty-weighted", []tenant.Signal{gold, signal("silver", tenant.Silver, 900), signal("bronze", tenant.Bronze, 1000), capped}, "bronze", 1000},
		{"tie-declaration-order", []tenant.Signal{gold, signal("b2", tenant.Bronze, 700), capped, signal("b1", tenant.Bronze, 700)}, "b2", 700},
		{"no-candidate", []tenant.Signal{gold, capped}, "", 0},
	} {
		var an Analysis
		an.annotateAdmission(tc.sigs)
		if an.ThrottleCandidate != tc.want || an.ThrottleCandidateRate != tc.wantRate {
			t.Errorf("%s: candidate = %q/%v, want %q/%v", tc.name,
				an.ThrottleCandidate, an.ThrottleCandidateRate, tc.want, tc.wantRate)
		}
		if len(an.Throttled) != 1 || an.Throttled[0] != (ThrottledTenant{Name: "capped", Rate: 300, Offered: 400}) {
			t.Errorf("%s: throttled list = %+v, want [capped]", tc.name, an.Throttled)
		}
	}
}
