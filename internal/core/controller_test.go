package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/sla"
	"autonosql/internal/store"
	"autonosql/internal/workload"
)

func TestNewControllerValidation(t *testing.T) {
	if _, err := New(DefaultConfig(testSLA()), nil); err == nil {
		t.Fatal("nil actuator accepted")
	}
	bad := DefaultConfig(testSLA())
	bad.MinNodes = 10
	bad.MaxNodes = 2
	if _, err := New(bad, newFakeActuator()); err == nil {
		t.Fatal("inconsistent config accepted")
	}
	badSLA := DefaultConfig(sla.SLA{})
	if _, err := New(badSLA, newFakeActuator()); err == nil {
		t.Fatal("empty SLA accepted")
	}
}

func TestControllerStepAppliesWindowAction(t *testing.T) {
	act := newFakeActuator()
	c, err := New(DefaultConfig(testSLA()), act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := c.Step(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2,
	}))
	if !d.Applied || d.Action.Kind != ActionTightenWriteConsistency {
		t.Fatalf("decision %+v, want applied tighten-write-cl", d)
	}
	if act.writeCL != store.Two {
		t.Fatalf("actuator write CL = %v, want TWO", act.writeCL)
	}
	if c.Reconfigurations() != 1 {
		t.Fatalf("Reconfigurations = %d, want 1", c.Reconfigurations())
	}
	if len(c.Decisions()) != 1 {
		t.Fatalf("decision log has %d entries, want 1", len(c.Decisions()))
	}
	if got := d.String(); !strings.Contains(got, "tighten-write-cl") || !strings.Contains(got, "applied") {
		t.Errorf("Decision.String() = %q", got)
	}
}

func TestControllerStepRecordsActuationFailure(t *testing.T) {
	act := newFakeActuator()
	act.failNext = errors.New("provider quota")
	c, err := New(DefaultConfig(testSLA()), act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := c.Step(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01, meanUtil: 0.9, maxUtil: 0.95,
	}))
	if d.Applied || d.Err == nil {
		t.Fatalf("decision %+v, want failed actuation", d)
	}
	if c.FailedActions() != 1 || c.Reconfigurations() != 0 {
		t.Fatalf("failed=%d applied=%d, want 1 and 0", c.FailedActions(), c.Reconfigurations())
	}
	if got := d.String(); !strings.Contains(got, "failed") {
		t.Errorf("Decision.String() = %q, want failure marker", got)
	}
}

func TestControllerConvergesUnderSteadyCompliantLoad(t *testing.T) {
	act := newFakeActuator()
	c, err := New(DefaultConfig(testSLA()), act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 1; i <= 20; i++ {
		c.Step(makeSnapshot(snapshotOpts{
			at: time.Duration(i) * 10 * time.Second, windowP95: 0.03,
			readP99: 0.005, writeP99: 0.006, meanUtil: 0.5, opsPerSec: 2000,
		}))
	}
	if c.Reconfigurations() != 0 {
		t.Fatalf("steady compliant load triggered %d reconfigurations", c.Reconfigurations())
	}
	if !c.Converged(10) {
		t.Fatal("controller should report convergence")
	}
}

func TestControllerConvergedRequiresEnoughHistory(t *testing.T) {
	act := newFakeActuator()
	c, err := New(DefaultConfig(testSLA()), act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Converged(1) {
		t.Fatal("no decisions yet but Converged reported true")
	}
	c.Step(makeSnapshot(snapshotOpts{at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005, meanUtil: 0.2}))
	if c.Converged(0) {
		t.Fatal("a just-applied action should defeat convergence")
	}
}

func TestControllerDoesNotOscillate(t *testing.T) {
	// A window hovering exactly at the SLA boundary must not cause the
	// controller to flip consistency levels back and forth every interval:
	// hysteresis and cooldowns bound the number of reconfigurations.
	act := newFakeActuator()
	cfg := DefaultConfig(testSLA())
	c, err := New(cfg, act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	window := 0.21 // just above the 200 ms limit
	applied := 0
	for i := 1; i <= 60; i++ {
		// Pretend every applied tightening helps a little, then the window
		// creeps back up — the worst case for oscillation.
		d := c.Step(makeSnapshot(snapshotOpts{
			at: time.Duration(i) * 10 * time.Second, windowP95: window,
			readP99: 0.005, writeP99: 0.006, meanUtil: 0.4,
			writeCL: act.writeCL, readCL: act.readCL,
		}))
		if d.Applied {
			applied++
			window = 0.05
		} else if window < 0.21 {
			window += 0.04
		}
	}
	if applied > 12 {
		t.Fatalf("%d reconfigurations in 10 minutes: controller is oscillating", applied)
	}
}

func TestControllerAttachRunsOnEngine(t *testing.T) {
	rig := newSimRig(t, 21, 3)
	actuator, err := NewSystemActuator(rig.store, rig.cluster)
	if err != nil {
		t.Fatalf("NewSystemActuator: %v", err)
	}
	agreement := sla.SLA{
		MaxWindowP95:       30 * time.Millisecond,
		MaxReadLatencyP99:  50 * time.Millisecond,
		MaxWriteLatencyP99: 60 * time.Millisecond,
		MaxErrorRate:       0.05,
	}
	cfg := DefaultConfig(agreement)
	cfg.ControlInterval = 5 * time.Second
	ctl, err := New(cfg, actuator)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The controller has no clock of its own: a ticker on the engine feeds it
	// a monitor snapshot every control interval, as a Scenario's sampler does.
	ticker, err := sim.NewTicker(rig.engine, cfg.ControlInterval, func(time.Duration) {
		ctl.Step(rig.monitor.Snapshot())
	})
	if err != nil {
		t.Fatalf("NewTicker: %v", err)
	}

	// Drive enough write-heavy load that the default ONE/ONE configuration
	// leaves a measurable window; the controller should react.
	src := sim.NewRandSource(5)
	gen, err := workload.NewGenerator(workload.Config{
		Profile: workload.ConstantProfile{OpsPerSec: 2500},
		Mix:     workload.Mix{ReadFraction: 0.5},
		Keys:    workload.NewUniformKeys(500, src.Stream("keys")),
		Until:   2 * time.Minute,
	}, rig.engine, rig.monitor, src)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	gen.Start()
	if err := rig.engine.Run(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(ctl.Decisions()) < 10 {
		t.Fatalf("controller took only %d decisions in 2 minutes at a 5 s interval", len(ctl.Decisions()))
	}
	ticker.Stop()
	decisionsAfterStop := len(ctl.Decisions())
	if err := rig.engine.Run(rig.engine.Now() + 30*time.Second); err != nil {
		t.Fatalf("Run after stop: %v", err)
	}
	if len(ctl.Decisions()) != decisionsAfterStop {
		t.Fatal("controller kept deciding once nothing drove it")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(testSLA())
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.MinNodes = 5; c.MaxNodes = 2 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(testSLA())
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config validated", i)
		}
	}
}
