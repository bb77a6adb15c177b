package core

import (
	"errors"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/monitor"
	"autonosql/internal/sim"
	"autonosql/internal/sla"
	"autonosql/internal/store"
)

// fakeActuator is an in-memory plant for unit tests of the planner and
// controller: no simulation, actions simply mutate fields.
type fakeActuator struct {
	size    int
	rf      int
	readCL  store.ConsistencyLevel
	writeCL store.ConsistencyLevel

	minSize int
	maxSize int

	addCalls    int
	removeCalls int
	failNext    error
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{size: 3, rf: 3, readCL: store.One, writeCL: store.One, minSize: 1, maxSize: 64}
}

func (f *fakeActuator) ClusterSize() int                         { return f.size }
func (f *fakeActuator) ReplicationFactor() int                   { return f.rf }
func (f *fakeActuator) ReadConsistency() store.ConsistencyLevel  { return f.readCL }
func (f *fakeActuator) WriteConsistency() store.ConsistencyLevel { return f.writeCL }
func (f *fakeActuator) SetReadConsistency(cl store.ConsistencyLevel) error {
	if err := f.consumeFailure(); err != nil {
		return err
	}
	f.readCL = cl
	return nil
}
func (f *fakeActuator) SetWriteConsistency(cl store.ConsistencyLevel) error {
	if err := f.consumeFailure(); err != nil {
		return err
	}
	f.writeCL = cl
	return nil
}
func (f *fakeActuator) AddNode() error {
	if err := f.consumeFailure(); err != nil {
		return err
	}
	if f.size >= f.maxSize {
		return errors.New("fake: max size")
	}
	f.size++
	f.addCalls++
	return nil
}
func (f *fakeActuator) RemoveNode() error {
	if err := f.consumeFailure(); err != nil {
		return err
	}
	if f.size <= f.minSize {
		return errors.New("fake: min size")
	}
	f.size--
	f.removeCalls++
	return nil
}

func (f *fakeActuator) consumeFailure() error {
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	return nil
}

var _ Actuator = (*fakeActuator)(nil)

// testSLA is the agreement used throughout the controller unit tests:
// 200 ms window, 20 ms read / 30 ms write latency, 1% error rate.
func testSLA() sla.SLA {
	return sla.SLA{
		MaxWindowP95:       200 * time.Millisecond,
		MaxReadLatencyP99:  20 * time.Millisecond,
		MaxWriteLatencyP99: 30 * time.Millisecond,
		MaxErrorRate:       0.01,
	}
}

// snapshot builds a monitoring snapshot with sensible defaults that tests
// override per case.
type snapshotOpts struct {
	at          time.Duration
	windowP95   float64
	readP99     float64
	writeP99    float64
	errorRate   float64
	meanUtil    float64
	maxUtil     float64
	opsPerSec   float64
	samples     int
	clusterSize int
	rf          int
	readCL      store.ConsistencyLevel
	writeCL     store.ConsistencyLevel
}

func makeSnapshot(o snapshotOpts) monitor.Snapshot {
	if o.samples == 0 {
		o.samples = 100
	}
	if o.clusterSize == 0 {
		o.clusterSize = 3
	}
	if o.rf == 0 {
		o.rf = 3
	}
	if o.readCL == 0 {
		o.readCL = store.One
	}
	if o.writeCL == 0 {
		o.writeCL = store.One
	}
	if o.maxUtil == 0 {
		o.maxUtil = o.meanUtil
	}
	return monitor.Snapshot{
		At:                o.at,
		Interval:          10 * time.Second,
		WindowMean:        o.windowP95 * 0.6,
		WindowP50:         o.windowP95 * 0.5,
		WindowP95:         o.windowP95,
		WindowP99:         o.windowP95 * 1.2,
		WindowSamples:     o.samples,
		ReadLatencyP99:    o.readP99,
		WriteLatencyP99:   o.writeP99,
		ObservedOpsPerSec: o.opsPerSec,
		ErrorRate:         o.errorRate,
		MeanUtilization:   o.meanUtil,
		MaxUtilization:    o.maxUtil,
		ClusterSize:       o.clusterSize,
		ReplicationFactor: o.rf,
		ReadConsistency:   o.readCL,
		WriteConsistency:  o.writeCL,
	}
}

// simRig wires a full simulated system (engine, cluster, store, monitor) for
// integration tests of the controller against the real plant.
type simRig struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	store   *store.Store
	monitor *monitor.Monitor
}

func newSimRig(t *testing.T, seed int64, nodes int) *simRig {
	t.Helper()
	engine := sim.NewEngine()
	src := sim.NewRandSource(seed)
	ccfg := cluster.DefaultConfig()
	if nodes > 0 {
		ccfg.InitialNodes = nodes
	}
	cl := cluster.New(ccfg, engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	mon, err := monitor.New(monitor.DefaultConfig(), engine, st, cl)
	if err != nil {
		t.Fatalf("monitor.New: %v", err)
	}
	return &simRig{engine: engine, cluster: cl, store: st, monitor: mon}
}
