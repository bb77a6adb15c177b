package core

import (
	"testing"
	"time"

	"autonosql/internal/store"
)

func TestAnalyzerNominal(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.02, readP99: 0.005, writeP99: 0.008,
		meanUtil: 0.5, opsPerSec: 1000,
	}))
	if an.Primary != ConditionNominal {
		t.Fatalf("primary = %v, want nominal", an.Primary)
	}
	if !an.WindowTrusted {
		t.Fatal("snapshot with 100 samples should be trusted")
	}
}

func TestAnalyzerAvailabilityDominates(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 1.0, readP99: 0.1, writeP99: 0.1,
		errorRate: 0.5, meanUtil: 0.95,
	}))
	if an.Primary != ConditionAvailabilityLow {
		t.Fatalf("primary = %v, want availability-low", an.Primary)
	}
	if an.Cause != CauseCPUSaturation {
		t.Fatalf("cause = %v, want cpu-saturation when utilisation is high", an.Cause)
	}
}

func TestAnalyzerWindowHighCPUSaturation(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.01,
		meanUtil: 0.9, maxUtil: 0.97,
	}))
	if an.Primary != ConditionWindowHigh || an.Cause != CauseCPUSaturation {
		t.Fatalf("got %v/%v, want window-high/cpu-saturation", an.Primary, an.Cause)
	}
}

func TestAnalyzerWindowHighLooseConsistency(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	// Window high while nodes are mostly idle and write latency is small:
	// the configuration, not a resource, is the problem.
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.5, readP99: 0.005, writeP99: 0.005,
		meanUtil: 0.2, maxUtil: 0.3,
	}))
	if an.Primary != ConditionWindowHigh || an.Cause != CauseLooseConsistency {
		t.Fatalf("got %v/%v, want window-high/loose-consistency", an.Primary, an.Cause)
	}
}

func TestAnalyzerWindowHighNetworkCongestion(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	// Window high, nodes idle, but writes are slow: propagation is delayed in
	// the network.
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.5, readP99: 0.01, writeP99: 0.020,
		meanUtil: 0.2, maxUtil: 0.3,
	}))
	if an.Primary != ConditionWindowHigh || an.Cause != CauseNetworkCongestion {
		t.Fatalf("got %v/%v, want window-high/network-congestion", an.Primary, an.Cause)
	}
}

func TestAnalyzerUntrustedWindowIsIgnored(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 5.0, readP99: 0.005, writeP99: 0.005,
		meanUtil: 0.5, samples: 2, // far below minWindowSamples
	}))
	if an.WindowTrusted {
		t.Fatal("2 samples should not be trusted")
	}
	if an.Primary == ConditionWindowHigh {
		t.Fatal("untrusted window estimate must not trigger the window condition")
	}
}

func TestAnalyzerLatencyHighCauses(t *testing.T) {
	cfg := DefaultConfig(testSLA())

	// Saturated nodes.
	a := NewAnalyzer(cfg)
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.02, readP99: 0.05, writeP99: 0.01,
		meanUtil: 0.9, maxUtil: 0.95,
	}))
	if an.Primary != ConditionLatencyHigh || an.Cause != CauseCPUSaturation {
		t.Fatalf("got %v/%v, want latency-high/cpu-saturation", an.Primary, an.Cause)
	}

	// Idle nodes with strict write consistency and slow writes.
	a2 := NewAnalyzer(cfg)
	an2 := a2.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.02, readP99: 0.002, writeP99: 0.05,
		meanUtil: 0.2, writeCL: store.All, readCL: store.One,
	}))
	if an2.Primary != ConditionLatencyHigh || an2.Cause != CauseLooseConsistency {
		t.Fatalf("got %v/%v, want latency-high/loose-consistency", an2.Primary, an2.Cause)
	}

	// Idle nodes, symmetric latency inflation: the network.
	a3 := NewAnalyzer(cfg)
	an3 := a3.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.02, readP99: 0.05, writeP99: 0.05,
		meanUtil: 0.2,
	}))
	if an3.Primary != ConditionLatencyHigh || an3.Cause != CauseNetworkCongestion {
		t.Fatalf("got %v/%v, want latency-high/network-congestion", an3.Primary, an3.Cause)
	}
}

func TestAnalyzerOverProvisioned(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	an := a.Analyze(makeSnapshot(snapshotOpts{
		at: 10 * time.Second, windowP95: 0.005, readP99: 0.001, writeP99: 0.002,
		meanUtil: 0.1, clusterSize: 8,
	}))
	if an.Primary != ConditionOverProvisioned || an.Cause != CauseExcessCapacity {
		t.Fatalf("got %v/%v, want over-provisioned/excess-capacity", an.Primary, an.Cause)
	}
}

func TestAnalyzerTracksLoadTrend(t *testing.T) {
	a := NewAnalyzer(DefaultConfig(testSLA()))
	var last Analysis
	for i := 1; i <= 10; i++ {
		last = a.Analyze(makeSnapshot(snapshotOpts{
			at: time.Duration(i) * 10 * time.Second, windowP95: 0.02,
			readP99: 0.005, writeP99: 0.005, meanUtil: 0.5,
			opsPerSec: float64(i) * 200,
		}))
	}
	if last.LoadTrend <= 0 {
		t.Fatalf("rising load should have positive trend, got %v", last.LoadTrend)
	}
	if last.ForecastOpsPerSec <= 2000 {
		t.Fatalf("forecast should exceed the latest observation for a rising load, got %v", last.ForecastOpsPerSec)
	}
}

func TestConditionAndCauseStrings(t *testing.T) {
	conds := []Condition{ConditionAvailabilityLow, ConditionWindowHigh, ConditionLatencyHigh, ConditionOverProvisioned, ConditionNominal}
	for _, c := range conds {
		if c.String() == "" || c.String() == "condition("+string(rune('0'+int(c)))+")" {
			t.Errorf("condition %d has no symbolic name", int(c))
		}
	}
	if Condition(99).String() != "condition(99)" {
		t.Error("unknown condition should render numerically")
	}
	causes := []Cause{CauseUnknown, CauseCPUSaturation, CauseNetworkCongestion, CauseLooseConsistency, CauseExcessCapacity}
	for _, c := range causes {
		if c.String() == "" {
			t.Errorf("cause %d has no name", int(c))
		}
	}
	if Cause(99).String() != "cause(99)" {
		t.Error("unknown cause should render numerically")
	}
}
