package autonosql

import (
	"errors"
	"fmt"
	"math"
	"time"

	"autonosql/internal/baseline"
	"autonosql/internal/cluster"
	"autonosql/internal/core"
	"autonosql/internal/monitor"
	"autonosql/internal/sla"
	"autonosql/internal/store"
	"autonosql/internal/workload"
)

// ConsistencyLevel is the number of replica acknowledgements an operation
// waits for, named as in Cassandra.
type ConsistencyLevel string

// Supported consistency levels.
const (
	// ConsistencyOne waits for a single replica.
	ConsistencyOne ConsistencyLevel = "ONE"
	// ConsistencyTwo waits for two replicas.
	ConsistencyTwo ConsistencyLevel = "TWO"
	// ConsistencyQuorum waits for a majority of replicas.
	ConsistencyQuorum ConsistencyLevel = "QUORUM"
	// ConsistencyAll waits for every replica.
	ConsistencyAll ConsistencyLevel = "ALL"
)

func (c ConsistencyLevel) toStore() (store.ConsistencyLevel, error) {
	if c == "" {
		return store.One, nil
	}
	return store.ParseConsistencyLevel(string(c))
}

// consistencyFromStore converts an internal level back to its public name.
func consistencyFromStore(cl store.ConsistencyLevel) ConsistencyLevel {
	return ConsistencyLevel(cl.String())
}

// ControllerMode selects which controller (if any) manages the cluster.
type ControllerMode string

// Controller modes.
const (
	// ControllerNone leaves the configuration fixed for the whole run.
	ControllerNone ControllerMode = "none"
	// ControllerReactive runs the classic CPU-threshold autoscaler baseline.
	ControllerReactive ControllerMode = "reactive"
	// ControllerSmart runs the paper's SLA-driven autonomous controller.
	ControllerSmart ControllerMode = "smart"
)

// LoadPattern selects the shape of the offered load over time.
type LoadPattern string

// Load patterns.
const (
	// LoadConstant offers a fixed rate for the whole run.
	LoadConstant LoadPattern = "constant"
	// LoadStep switches from the base rate to the peak rate during
	// [PeakStart, PeakStart+PeakDuration).
	LoadStep LoadPattern = "step"
	// LoadDiurnal oscillates between the base and peak rate with the given
	// period, modelling a day/night cycle.
	LoadDiurnal LoadPattern = "diurnal"
	// LoadSpike overlays a flash-crowd spike on the base rate.
	LoadSpike LoadPattern = "spike"
	// LoadDiurnalSpike combines the diurnal cycle with a flash-crowd spike.
	LoadDiurnalSpike LoadPattern = "diurnal+spike"
)

// KeyDistribution selects how operations pick keys.
type KeyDistribution string

// Key distributions.
const (
	// KeysUniform picks keys uniformly at random.
	KeysUniform KeyDistribution = "uniform"
	// KeysZipfian picks keys with a YCSB-style zipfian popularity skew.
	KeysZipfian KeyDistribution = "zipfian"
	// KeysLatest skews reads towards recently written keys.
	KeysLatest KeyDistribution = "latest"
)

// ClusterSpec describes the infrastructure the database runs on.
type ClusterSpec struct {
	// InitialNodes is the number of nodes at the start of the run.
	InitialNodes int
	// MinNodes and MaxNodes bound the sizes reachable through scaling.
	MinNodes int
	MaxNodes int
	// NodeOpsPerSec is the sustainable per-node throughput.
	NodeOpsPerSec float64
	// BootstrapTime is how long a new node takes before it serves traffic.
	BootstrapTime time.Duration
	// DecommissionTime is how long a node drains before removal.
	DecommissionTime time.Duration
	// NoisyNeighbour enables the multi-tenant background-load profile that
	// makes the inconsistency window drift over time.
	NoisyNeighbour bool
}

// StoreSpec describes the eventually-consistent store configuration.
type StoreSpec struct {
	// ReplicationFactor is the number of replicas per key.
	ReplicationFactor int
	// ReadConsistency and WriteConsistency are the initial consistency levels.
	ReadConsistency  ConsistencyLevel
	WriteConsistency ConsistencyLevel
	// ReadRepair enables background repair of stale replicas touched by reads.
	ReadRepair bool
	// HintedHandoff queues writes for unavailable replicas.
	HintedHandoff bool
	// AntiEntropyInterval is the period of the background repair sweep
	// (zero disables it).
	AntiEntropyInterval time.Duration
}

// WorkloadSpec describes the client traffic offered to the store.
type WorkloadSpec struct {
	// Pattern is the load shape.
	Pattern LoadPattern
	// BaseOpsPerSec is the baseline offered rate.
	BaseOpsPerSec float64
	// PeakOpsPerSec is the peak rate for step, diurnal and spike patterns.
	PeakOpsPerSec float64
	// Period is the diurnal period (defaults to the run duration).
	Period time.Duration
	// PeakStart and PeakDuration position the step or spike.
	PeakStart    time.Duration
	PeakDuration time.Duration
	// ReadFraction is the fraction of operations that are reads.
	ReadFraction float64
	// Keyspace is the number of distinct keys; zero means 10000, and a
	// negative count is invalid.
	Keyspace int
	// Keys selects the key popularity distribution.
	Keys KeyDistribution
}

// MonitorSpec describes how the inconsistency window is measured.
type MonitorSpec struct {
	// ActiveProbes enables read-after-write probing on a dummy keyspace.
	ActiveProbes bool
	// PassiveObservation enables coordinator-side replica-ack observation.
	PassiveObservation bool
	// ProbeRate is the number of active probes per second.
	ProbeRate float64
}

// SLASpec describes the extended SLA and the cost model used to price a run.
type SLASpec struct {
	// MaxWindowP95 bounds the 95th percentile of the inconsistency window.
	MaxWindowP95 time.Duration
	// MaxReadLatencyP99 bounds client read latency.
	MaxReadLatencyP99 time.Duration
	// MaxWriteLatencyP99 bounds client write latency.
	MaxWriteLatencyP99 time.Duration
	// MaxErrorRate bounds the fraction of failed operations.
	MaxErrorRate float64

	// NodeCostPerHour prices one node for one hour.
	NodeCostPerHour float64
	// StaleReadCompensation prices one stale read served to a client.
	StaleReadCompensation float64
	// ViolationPenaltyPerMinute prices one minute of SLA violation.
	ViolationPenaltyPerMinute float64
}

// ControllerSpec selects and configures the controller managing the cluster.
type ControllerSpec struct {
	// Mode selects the controller: none, reactive or smart.
	Mode ControllerMode
	// ControlInterval is the period of the control loop.
	ControlInterval time.Duration
	// Predictive enables proactive scaling from the load forecast
	// (smart mode only).
	Predictive bool
	// AllowConsistencyChanges lets the smart controller change consistency
	// levels.
	AllowConsistencyChanges bool
	// AllowScaling lets the controller add and remove nodes.
	AllowScaling bool
	// Admission configures tenant-scoped admission control (throttle /
	// unthrottle actions) for the smart controller. The zero value keeps it
	// off and reproduces pre-admission behaviour exactly.
	Admission AdmissionSpec
	// AllowPlacement lets the smart controller dedicate nodes to an SLA
	// class (pin / unpin actions) so gold replica sets stop sharing queues
	// with best-effort traffic.
	AllowPlacement bool
}

// ObserveSpec configures the deterministic observability layer. Everything
// here is strictly opt-in: the zero value (and a nil pointer on the spec)
// runs the exact pre-observability code paths, byte-identical reports and
// fingerprints included.
type ObserveSpec struct {
	// TraceOps enables sampled causal op tracing: every sampled operation
	// records its span tree — arrival, admission, coordination, per-replica
	// fan-out, acks, quorum, SLA accounting — stamped with virtual time only,
	// so exports are byte-identical across repeated runs.
	TraceOps bool
	// SampleEvery traces every Nth operation (values < 1 mean 1 — trace
	// everything). The first operation is always sampled.
	SampleEvery int `json:",omitempty"`
	// MaxTraces bounds the retained traces; the oldest are evicted beyond it
	// (0 = unbounded).
	MaxTraces int `json:",omitempty"`
	// Audit records one MAPE audit record per control decision: the driving
	// tenant signal, every cooldown consulted, every vetoed candidate and the
	// planning branch taken. Surfaces as Report.Audit.
	Audit bool
	// Profile surfaces the engine's deterministic self-profiling counters
	// (event count, event pool hit rate, heap high-water mark) as
	// Report.Profile.
	Profile bool
}

// ScenarioSpec is the complete description of one simulated run.
type ScenarioSpec struct {
	// Seed drives every random stream in the simulation; runs with the same
	// spec and seed are bit-for-bit reproducible.
	Seed int64
	// Duration is the simulated (virtual) time to run for.
	Duration time.Duration
	// SampleInterval is how often time series points are recorded.
	SampleInterval time.Duration

	Cluster    ClusterSpec
	Store      StoreSpec
	Workload   WorkloadSpec
	Monitor    MonitorSpec
	SLA        SLASpec
	Controller ControllerSpec

	// Faults schedules deterministic fault injection — node crashes and
	// restarts, slow nodes, network partitions and heals, latency storms —
	// over the run. The zero value runs failure-free.
	Faults FaultPlan

	// Tenants declares the scenario's named tenants. When the list is empty
	// the scenario behaves exactly as before (one anonymous client workload
	// described by Workload, one SLA, one aggregate report); when it is
	// non-empty the tenants replace the Workload traffic — each tenant runs
	// its own generator over a disjoint key-space slice under its own SLA
	// class — and the report gains per-tenant sections.
	Tenants []TenantSpec

	// Replay, when non-nil, replaces every workload generator with an exact
	// replay of the recorded arrival stream: each operation is issued at its
	// recorded virtual time, to its recorded tenant and key, regardless of
	// the Workload / tenant rate parameters (which then only describe where
	// the trace came from). The trace's tenant names must match Tenants.
	// Replay is excluded from JSON because a trace is workload data, not
	// configuration; persist it next to the spec with WorkloadTrace.WriteFile.
	Replay *WorkloadTrace `json:"-"`

	// Observe, when non-nil, enables the observability layer: sampled causal
	// op traces, the MAPE audit trail and engine self-profiling. Nil (the
	// default) keeps every hot path on its pre-observability budget and every
	// report byte-identical to an unobserved run.
	Observe *ObserveSpec `json:",omitempty"`

	// Shards is accepted so stored specs keep loading, and must be
	// non-negative. Every scenario runs on the single-heap engine.
	//
	// Deprecated: ignored.
	Shards int `json:",omitempty"`
}

// DefaultScenarioSpec returns a ready-to-run scenario: a three-node cluster,
// RF=3 with ONE/ONE consistency, a constant 3000 ops/s YCSB-A-style workload,
// both monitoring techniques, the default SLA and the smart controller.
func DefaultScenarioSpec() ScenarioSpec {
	return ScenarioSpec{
		Seed:           1,
		Duration:       5 * time.Minute,
		SampleInterval: 10 * time.Second,
		Cluster: ClusterSpec{
			InitialNodes:     3,
			MinNodes:         2,
			MaxNodes:         16,
			NodeOpsPerSec:    5000,
			BootstrapTime:    60 * time.Second,
			DecommissionTime: 30 * time.Second,
		},
		Store: StoreSpec{
			ReplicationFactor:   3,
			ReadConsistency:     ConsistencyOne,
			WriteConsistency:    ConsistencyOne,
			ReadRepair:          true,
			HintedHandoff:       true,
			AntiEntropyInterval: 60 * time.Second,
		},
		Workload: WorkloadSpec{
			Pattern:       LoadConstant,
			BaseOpsPerSec: 3000,
			ReadFraction:  0.5,
			Keyspace:      defaultKeyspace,
			Keys:          KeysZipfian,
		},
		Monitor: MonitorSpec{
			ActiveProbes:       true,
			PassiveObservation: true,
			ProbeRate:          1,
		},
		SLA: SLASpec{
			MaxWindowP95:              250 * time.Millisecond,
			MaxReadLatencyP99:         20 * time.Millisecond,
			MaxWriteLatencyP99:        25 * time.Millisecond,
			MaxErrorRate:              0.001,
			NodeCostPerHour:           0.50,
			StaleReadCompensation:     0.02,
			ViolationPenaltyPerMinute: 1.00,
		},
		Controller: ControllerSpec{
			Mode:                    ControllerSmart,
			ControlInterval:         10 * time.Second,
			Predictive:              true,
			AllowConsistencyChanges: true,
			AllowScaling:            true,
		},
	}
}

// Validate reports whether the spec describes a runnable scenario.
func (s ScenarioSpec) Validate() error {
	if s.Duration <= 0 {
		return errors.New("autonosql: Duration must be positive")
	}
	if err := s.Workload.validate(); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	if s.Cluster.InitialNodes <= 0 {
		return errors.New("autonosql: InitialNodes must be positive")
	}
	// The controllers scale within these bounds (the smart one shares the
	// reactive one's defaults), so every controller can be assembled.
	def := baseline.DefaultReactiveConfig()
	if lo, hi := s.Cluster.nodeBounds(def.MinNodes, def.MaxNodes); lo > hi {
		return fmt.Errorf("autonosql: MinNodes %d exceeds MaxNodes %d", lo, hi)
	}
	if s.Store.ReplicationFactor <= 0 || s.Store.ReplicationFactor > store.MaxReplicationFactor {
		return fmt.Errorf("autonosql: ReplicationFactor must be within [1, %d]", store.MaxReplicationFactor)
	}
	if _, err := s.Store.ReadConsistency.toStore(); err != nil {
		return fmt.Errorf("autonosql: read consistency: %w", err)
	}
	if _, err := s.Store.WriteConsistency.toStore(); err != nil {
		return fmt.Errorf("autonosql: write consistency: %w", err)
	}
	switch s.Controller.Mode {
	case "", ControllerNone, ControllerReactive, ControllerSmart:
	default:
		return fmt.Errorf("autonosql: unknown controller mode %q", s.Controller.Mode)
	}
	if err := s.slaModel().Validate(); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	if err := s.costModel().Validate(); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	if err := s.Faults.validate(); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	if err := validateTenants(s.Tenants); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	if err := s.Controller.Admission.validate(); err != nil {
		return fmt.Errorf("autonosql: admission: %w", err)
	}
	if s.Replay != nil {
		if err := s.Replay.matches(s.Tenants); err != nil {
			return fmt.Errorf("autonosql: replay: %w", err)
		}
	}
	if s.Observe != nil {
		if s.Observe.SampleEvery < 0 {
			return errors.New("autonosql: Observe.SampleEvery must be non-negative")
		}
		if s.Observe.MaxTraces < 0 {
			return errors.New("autonosql: Observe.MaxTraces must be non-negative")
		}
	}
	if s.Shards < 0 {
		return errors.New("autonosql: Shards must be non-negative")
	}
	return nil
}

// validate reports whether the workload is well formed.
func (w WorkloadSpec) validate() error {
	if !finiteNonNegative(w.BaseOpsPerSec) || !finiteNonNegative(w.PeakOpsPerSec) {
		return errors.New("offered rates must be finite and non-negative")
	}
	if math.IsNaN(w.ReadFraction) || w.ReadFraction < 0 || w.ReadFraction > 1 {
		return errors.New("ReadFraction must be within [0, 1]")
	}
	if w.Keyspace < 0 {
		return errors.New("Keyspace must be non-negative")
	}
	switch w.Pattern {
	case "", LoadConstant, LoadStep, LoadDiurnal, LoadSpike, LoadDiurnalSpike:
	default:
		return fmt.Errorf("unknown load pattern %q", w.Pattern)
	}
	switch w.Keys {
	case "", KeysUniform, KeysZipfian, KeysLatest:
	default:
		return fmt.Errorf("unknown key distribution %q", w.Keys)
	}
	return nil
}

// --- conversions to internal configurations ---------------------------------

// nodeBounds returns the scaling bounds, an unset one taking the given
// default.
func (c ClusterSpec) nodeBounds(defMin, defMax int) (minNodes, maxNodes int) {
	minNodes, maxNodes = c.MinNodes, c.MaxNodes
	if minNodes <= 0 {
		minNodes = defMin
	}
	if maxNodes <= 0 {
		maxNodes = defMax
	}
	return minNodes, maxNodes
}

func (s ScenarioSpec) clusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.InitialNodes = s.Cluster.InitialNodes
	cfg.MinNodes, cfg.MaxNodes = s.Cluster.nodeBounds(cfg.MinNodes, cfg.MaxNodes)
	if s.Cluster.NodeOpsPerSec > 0 {
		cfg.NodeOpsPerSec = s.Cluster.NodeOpsPerSec
	}
	if s.Cluster.BootstrapTime > 0 {
		cfg.BootstrapTime = s.Cluster.BootstrapTime
	}
	if s.Cluster.DecommissionTime > 0 {
		cfg.DecommissionTime = s.Cluster.DecommissionTime
	}
	return cfg
}

func (s ScenarioSpec) storeConfig() (store.Config, error) {
	readCL, err := s.Store.ReadConsistency.toStore()
	if err != nil {
		return store.Config{}, err
	}
	writeCL, err := s.Store.WriteConsistency.toStore()
	if err != nil {
		return store.Config{}, err
	}
	cfg := store.DefaultConfig()
	cfg.ReplicationFactor = s.Store.ReplicationFactor
	cfg.ReadConsistency = readCL
	cfg.WriteConsistency = writeCL
	cfg.ReadRepair = s.Store.ReadRepair
	cfg.HintedHandoff = s.Store.HintedHandoff
	cfg.AntiEntropyInterval = s.Store.AntiEntropyInterval
	return cfg, nil
}

func (s ScenarioSpec) monitorConfig() monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.UseActive = s.Monitor.ActiveProbes
	cfg.UsePassive = s.Monitor.PassiveObservation
	if s.Monitor.ProbeRate > 0 {
		cfg.ProbeRate = s.Monitor.ProbeRate
	}
	if !s.Monitor.ActiveProbes {
		cfg.ProbeRate = 0
	}
	// Bound the load a single probe can add while it waits for its write to
	// become visible: poll every 20 ms and give up (recording a censored
	// estimate) after 5 s.
	cfg.ProbePollInterval = 20 * time.Millisecond
	cfg.ProbeTimeout = 5 * time.Second
	return cfg
}

func (s ScenarioSpec) slaModel() sla.SLA {
	return sla.SLA{
		MaxWindowP95:       s.SLA.MaxWindowP95,
		MaxReadLatencyP99:  s.SLA.MaxReadLatencyP99,
		MaxWriteLatencyP99: s.SLA.MaxWriteLatencyP99,
		MaxErrorRate:       s.SLA.MaxErrorRate,
	}
}

func (s ScenarioSpec) costModel() sla.CostModel {
	m := sla.CostModel{
		NodeCostPerHour:           s.SLA.NodeCostPerHour,
		StaleReadCompensation:     s.SLA.StaleReadCompensation,
		ViolationPenaltyPerMinute: s.SLA.ViolationPenaltyPerMinute,
	}
	if m.NodeCostPerHour == 0 && m.StaleReadCompensation == 0 && m.ViolationPenaltyPerMinute == 0 {
		m = sla.DefaultCostModel()
	}
	return m
}

// loadProfileFor builds the load profile for one workload description,
// defaulting the period and peak placement from the run duration. Tenant
// workloads share the exact defaulting rules of the scenario workload.
func loadProfileFor(w WorkloadSpec, duration time.Duration) workload.LoadProfile {
	base := w.BaseOpsPerSec
	peak := w.PeakOpsPerSec
	if peak <= 0 {
		peak = base
	}
	period := w.Period
	if period <= 0 {
		period = duration
	}
	peakStart := w.PeakStart
	if peakStart <= 0 {
		peakStart = duration / 2
	}
	peakDur := w.PeakDuration
	if peakDur <= 0 {
		peakDur = duration / 10
	}
	switch w.Pattern {
	case LoadStep:
		return workload.StepProfile{Base: base, Peak: peak, From: peakStart, To: peakStart + peakDur}
	case LoadDiurnal:
		return workload.DiurnalProfile{Min: base, Max: peak, Period: period}
	case LoadSpike:
		return workload.SpikeProfile{Base: base, SpikeTo: peak, At: peakStart, Duration: peakDur, RampFraction: 0.2}
	case LoadDiurnalSpike:
		return workload.CompositeProfile{Parts: []workload.LoadProfile{
			workload.DiurnalProfile{Min: base, Max: peak, Period: period},
			workload.SpikeProfile{Base: 0, SpikeTo: peak, At: peakStart, Duration: peakDur, RampFraction: 0.2},
		}}
	default:
		return workload.ConstantProfile{OpsPerSec: base}
	}
}

func (s ScenarioSpec) controllerConfig() core.Config {
	cfg := core.DefaultConfig(s.slaModel())
	if s.Controller.ControlInterval > 0 {
		cfg.ControlInterval = s.Controller.ControlInterval
	}
	cfg.EnablePrediction = s.Controller.Predictive
	cfg.EnableConsistencyActions = s.Controller.AllowConsistencyChanges
	cfg.EnableScaling = s.Controller.AllowScaling
	cfg.EnableAdmissionControl = s.Controller.Admission.Enabled
	cfg.EnablePlacementActions = s.Controller.AllowPlacement
	if s.Controller.Admission.ThrottleFraction > 0 {
		cfg.ThrottleFraction = s.Controller.Admission.ThrottleFraction
	}
	if s.Controller.Admission.MinRate > 0 {
		cfg.MinThrottleRate = s.Controller.Admission.MinRate
	}
	if s.Controller.Admission.Cooldown > 0 {
		cfg.ThrottleCooldown = s.Controller.Admission.Cooldown
	}
	if s.Controller.Admission.Holdoff > 0 {
		cfg.UnthrottleHoldoff = s.Controller.Admission.Holdoff
	}
	cfg.MinNodes, cfg.MaxNodes = s.Cluster.nodeBounds(cfg.MinNodes, cfg.MaxNodes)
	if cap := s.effectiveNodeCapacity(); cap > 0 {
		cfg.NodeCapacityOpsPerSec = cap
	}
	if s.Cluster.BootstrapTime > 0 {
		cfg.PredictionHorizon = 2 * s.Cluster.BootstrapTime
	}
	return cfg
}

// effectiveNodeCapacity is the controller's belief about how many *client*
// operations per second one node contributes for the configured workload mix
// and replication factor. One client operation costs more than one node
// operation: reads usually touch a replica besides the coordinator and every
// write ships a replication apply to each other replica.
func (s ScenarioSpec) effectiveNodeCapacity() float64 {
	nodeOps := s.Cluster.NodeOpsPerSec
	if nodeOps <= 0 {
		nodeOps = cluster.DefaultNodeOpsPerSec
	}
	rf := s.Store.ReplicationFactor
	if rf < 1 {
		rf = 1
	}
	readFrac := s.Workload.ReadFraction
	service := 1.0 / nodeOps
	readCost := 2 * service
	writeCost := service + float64(cluster.ReplicationApplyShare*service*float64(rf))
	perOp := float64(readFrac*readCost) + float64((1-readFrac)*writeCost)
	if perOp <= 0 {
		return nodeOps
	}
	return 1 / perOp
}

func (s ScenarioSpec) reactiveConfig() baseline.ReactiveConfig {
	cfg := baseline.DefaultReactiveConfig()
	cfg.MinNodes, cfg.MaxNodes = s.Cluster.nodeBounds(cfg.MinNodes, cfg.MaxNodes)
	return cfg
}
