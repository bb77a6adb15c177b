package baseline

import (
	"errors"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/core"
	"autonosql/internal/monitor"
	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/workload"
)

// fakeActuator mirrors the in-memory plant used by the core tests.
type fakeActuator struct {
	size    int
	rf      int
	readCL  store.ConsistencyLevel
	writeCL store.ConsistencyLevel
	fail    error

	adds    int
	removes int
}

func newFakeActuator(size int) *fakeActuator {
	return &fakeActuator{size: size, rf: 3, readCL: store.One, writeCL: store.One}
}

func (f *fakeActuator) ClusterSize() int                                   { return f.size }
func (f *fakeActuator) ReplicationFactor() int                             { return f.rf }
func (f *fakeActuator) ReadConsistency() store.ConsistencyLevel            { return f.readCL }
func (f *fakeActuator) WriteConsistency() store.ConsistencyLevel           { return f.writeCL }
func (f *fakeActuator) SetReadConsistency(cl store.ConsistencyLevel) error { f.readCL = cl; return nil }
func (f *fakeActuator) SetWriteConsistency(cl store.ConsistencyLevel) error {
	f.writeCL = cl
	return nil
}
func (f *fakeActuator) AddNode() error {
	if f.fail != nil {
		return f.fail
	}
	f.size++
	f.adds++
	return nil
}
func (f *fakeActuator) RemoveNode() error {
	if f.fail != nil {
		return f.fail
	}
	f.size--
	f.removes++
	return nil
}

var _ core.Actuator = (*fakeActuator)(nil)

func snap(at time.Duration, util float64, size int) monitor.Snapshot {
	return monitor.Snapshot{
		At:                at,
		Interval:          10 * time.Second,
		MeanUtilization:   util,
		MaxUtilization:    util,
		ClusterSize:       size,
		ReplicationFactor: 3,
		ReadConsistency:   store.One,
		WriteConsistency:  store.One,
		WindowSamples:     100,
	}
}

func TestReactiveScalesOutOnHighUtilization(t *testing.T) {
	act := newFakeActuator(3)
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	d := r.Step(snap(10*time.Second, 0.9, 3))
	if !d.Applied || d.Action.Kind != core.ActionAddNode {
		t.Fatalf("decision %+v, want applied add-node", d)
	}
	if act.adds != 1 {
		t.Fatalf("adds = %d, want 1", act.adds)
	}
	if r.Reconfigurations() != 1 {
		t.Fatalf("Reconfigurations = %d", r.Reconfigurations())
	}
}

func TestReactiveScaleOutCooldown(t *testing.T) {
	act := newFakeActuator(3)
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	r.Step(snap(10*time.Second, 0.9, 3))
	d := r.Step(snap(20*time.Second, 0.9, 4))
	if d.Applied {
		t.Fatal("second scale-out applied within the cooldown")
	}
	d = r.Step(snap(10*time.Second+scaleOutCooldown, 0.9, 4))
	if !d.Applied {
		t.Fatal("scale-out after cooldown expired was not applied")
	}
}

func TestReactiveScalesInOnLowUtilization(t *testing.T) {
	act := newFakeActuator(6)
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	d := r.Step(snap(10*time.Minute, 0.1, 6))
	if !d.Applied || d.Action.Kind != core.ActionRemoveNode {
		t.Fatalf("decision %+v, want applied remove-node", d)
	}
	// Immediately afterwards the scale-in cooldown blocks further removals.
	d = r.Step(snap(10*time.Minute+10*time.Second, 0.1, 5))
	if d.Applied {
		t.Fatal("second scale-in applied within the cooldown")
	}
}

// TestReactiveScaleInWaitsOutScaleOut pins the hold a scale-out puts on the
// next removal: for the scale-in cooldown after a node was added, low
// utilisation removes nothing, and the first step at the end of that
// cooldown scales in.
func TestReactiveScaleInWaitsOutScaleOut(t *testing.T) {
	act := newFakeActuator(3)
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	const interval = 10 * time.Second
	out := interval
	if d := r.Step(snap(out, 0.9, 3)); !d.Applied || d.Action.Kind != core.ActionAddNode {
		t.Fatalf("decision %+v, want applied add-node", d)
	}
	if d := r.Step(snap(out+scaleInCooldown-interval, 0.1, 4)); d.Applied || !d.Action.IsNoop() {
		t.Fatalf("one tick before the scale-in cooldown ended: %+v, want no action", d)
	}
	d := r.Step(snap(out+scaleInCooldown, 0.1, 4))
	if !d.Applied || d.Action.Kind != core.ActionRemoveNode {
		t.Fatalf("at the end of the scale-in cooldown: %+v, want applied remove-node", d)
	}
	if act.adds != 1 || act.removes != 1 {
		t.Fatalf("adds=%d removes=%d, want 1 and 1", act.adds, act.removes)
	}
}

func TestReactiveRespectsBounds(t *testing.T) {
	cfg := DefaultReactiveConfig()
	cfg.MinNodes = 3
	cfg.MaxNodes = 4
	act := newFakeActuator(4)
	r, err := NewReactiveAutoscaler(cfg, act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	if d := r.Step(snap(10*time.Second, 0.95, 4)); d.Applied {
		t.Fatal("scaled out beyond MaxNodes")
	}
	act2 := newFakeActuator(3)
	r2, err := NewReactiveAutoscaler(cfg, act2)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	if d := r2.Step(snap(10*time.Second, 0.05, 3)); d.Applied {
		t.Fatal("scaled in below MinNodes")
	}
}

func TestReactiveIsBlindToTheWindow(t *testing.T) {
	// The defining weakness of the baseline: an enormous inconsistency window
	// with moderate CPU produces no reaction at all.
	act := newFakeActuator(3)
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	s := snap(10*time.Second, 0.5, 3)
	s.WindowP95 = 10.0 // ten-second window
	d := r.Step(s)
	if d.Applied || !d.Action.IsNoop() {
		t.Fatalf("CPU-only autoscaler reacted to the window: %+v", d)
	}
}

func TestReactiveRecordsActuationFailures(t *testing.T) {
	act := newFakeActuator(3)
	act.fail = errors.New("quota exceeded")
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), act)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	d := r.Step(snap(10*time.Second, 0.9, 3))
	if d.Applied || d.Err == nil {
		t.Fatalf("decision %+v, want failure", d)
	}
	if r.FailedActions() != 1 {
		t.Fatalf("FailedActions = %d, want 1", r.FailedActions())
	}
}

func TestReactiveValidation(t *testing.T) {
	if _, err := NewReactiveAutoscaler(DefaultReactiveConfig(), nil); err == nil {
		t.Fatal("nil actuator accepted")
	}
}

func TestReactiveAttachIntegration(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(17)
	ccfg := cluster.DefaultConfig()
	ccfg.InitialNodes = 2
	cl := cluster.New(ccfg, engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	mon, err := monitor.New(monitor.DefaultConfig(), engine, st, cl)
	if err != nil {
		t.Fatalf("monitor.New: %v", err)
	}
	actuator, err := core.NewSystemActuator(st, cl)
	if err != nil {
		t.Fatalf("NewSystemActuator: %v", err)
	}
	r, err := NewReactiveAutoscaler(DefaultReactiveConfig(), actuator)
	if err != nil {
		t.Fatalf("NewReactiveAutoscaler: %v", err)
	}
	// The autoscaler has no clock of its own: a ticker on the engine feeds
	// it a monitor snapshot every control interval, as a Scenario's sampler
	// does.
	ticker, err := sim.NewTicker(engine, 10*time.Second, func(time.Duration) {
		r.Step(mon.Snapshot())
	})
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}

	// Overload two small nodes so utilisation crosses the scale-out threshold.
	gen, err := workload.NewGenerator(workload.Config{
		Profile: workload.ConstantProfile{OpsPerSec: 8000},
		Mix:     workload.Mix{ReadFraction: 0.5},
		Keys:    workload.NewUniformKeys(200, src.Stream("keys")),
		Until:   2 * time.Minute,
	}, engine, mon, src)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	gen.Start()
	if err := engine.Run(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Reconfigurations() == 0 {
		t.Fatal("reactive autoscaler never scaled out under overload")
	}
	if len(r.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
	ticker.Stop()
	n := len(r.Decisions())
	if err := engine.Run(engine.Now() + 30*time.Second); err != nil {
		t.Fatalf("Run after stop: %v", err)
	}
	if len(r.Decisions()) != n {
		t.Fatal("autoscaler kept deciding once nothing drove it")
	}
}
