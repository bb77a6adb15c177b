package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/metrics"
	"autonosql/internal/obs"
	"autonosql/internal/sim"
)

// Config is the static configuration of the store. The consistency-related
// fields (replication factor, read/write consistency levels) are the knobs
// the paper's autonomous system adjusts at run time; they can be changed
// later through the Set* methods.
type Config struct {
	// ReplicationFactor is the number of replicas per key.
	ReplicationFactor int
	// ReadConsistency is the consistency level applied to reads.
	ReadConsistency ConsistencyLevel
	// WriteConsistency is the consistency level applied to writes.
	WriteConsistency ConsistencyLevel
	// ReadRepair repairs stale replicas touched by a read in the background.
	ReadRepair bool
	// HintedHandoff queues writes destined for unavailable replicas and
	// delivers them when the replica returns.
	HintedHandoff bool
	// AntiEntropyInterval is the period of the background repair process; a
	// zero value disables anti-entropy.
	AntiEntropyInterval time.Duration
}

// The store's fixed timings and calibration, in the style of Cassandra's
// defaults.
const (
	// readRepairDelay is the extra delay before a read-repair mutation is
	// applied to a stale replica.
	readRepairDelay = 2 * time.Millisecond
	// hintDeliveryDelay is the spacing between queued hint deliveries after
	// a replica recovers.
	hintDeliveryDelay = 500 * time.Microsecond
	// mutationDropTimeout mirrors the dropped-mutation behaviour of
	// Dynamo-style stores: a replicated mutation that cannot be applied by a
	// replica within this delay is dropped and turned into a hint, to be
	// redelivered later. This is the mechanism that makes the inconsistency
	// window blow up when replicas are overloaded.
	mutationDropTimeout = time.Second
	// hintRetryInterval is how often queued hints for live replicas are
	// retried (dropped mutations are redelivered on this cadence, in addition
	// to the anti-entropy sweep).
	hintRetryInterval = 5 * time.Second
	// nominalNetworkOpsPerSec calibrates how much replication traffic the
	// network absorbs before replication itself causes congestion.
	nominalNetworkOpsPerSec = 60000
)

// MaxReplicationFactor bounds the replication factor: a write's window
// counts its outstanding replicas, and its holders (the write and one hint
// per replica), in 16 bits.
const MaxReplicationFactor = math.MaxInt16 - 1

// DefaultConfig is the Cassandra-like configuration used by the experiments:
// RF=3, ONE/ONE consistency, read repair and hinted handoff enabled, and a
// 60 s anti-entropy sweep.
func DefaultConfig() Config {
	return Config{
		ReplicationFactor:   3,
		ReadConsistency:     One,
		WriteConsistency:    One,
		ReadRepair:          true,
		HintedHandoff:       true,
		AntiEntropyInterval: 60 * time.Second,
	}
}

// Result is delivered to the caller's callback when an operation completes.
type Result struct {
	Kind OpKind
	// ID identifies the key; Store.KeyName resolves it to the name on demand.
	ID KeyID
	// Key is the key's name where the target that produced the result speaks
	// names (client-side test doubles). The store leaves it empty: building a
	// name per operation is exactly what ids avoid.
	Key         Key
	Err         error
	IssuedAt    time.Duration
	CompletedAt time.Duration
	Latency     time.Duration
	// Version is the logical version written (for writes) or observed (for
	// reads). Clients can compare versions across their own operations to
	// measure consistency from the outside, exactly like the read-after-write
	// probes the paper proposes.
	Version uint64
	// Stale marks a read that returned a version older than the newest
	// acknowledged write of that key (ground truth, used for evaluation).
	Stale bool
}

// WriteObservation is what a coordinator can legitimately observe about the
// propagation of one of its writes: when the client was acknowledged and
// when the last replica acknowledgement arrived. Passive monitors build
// inconsistency-window estimates from these, without access to simulator
// ground truth.
type WriteObservation struct {
	IssuedAt  time.Duration
	AckedAt   time.Duration
	LastAckAt time.Duration
	Replicas  int
	Acked     int
}

// Observer receives coordinator-level observations. Monitors register
// observers; the store invokes them on the simulation event loop.
type Observer interface {
	ObserveWrite(WriteObservation)
}

// Stats is a snapshot of the store's cumulative ground-truth statistics.
type Stats struct {
	Reads          uint64
	Writes         uint64
	ReadFailures   uint64
	WriteFailures  uint64
	StaleReads     uint64
	ReadRepairs    uint64
	HintsQueued    uint64
	HintsDelivered uint64
	// DroppedMutations counts replicated mutations a replica could not apply
	// within the mutation-drop timeout; they are converted into hints.
	DroppedMutations uint64
	LostUpdates      uint64
	AntiEntropyRan   uint64

	ReadLatency  metrics.Snapshot
	WriteLatency metrics.Snapshot
	// Window summarises the true inconsistency window of acknowledged
	// writes, in seconds.
	Window metrics.Snapshot
}

// Store is the simulated eventually-consistent database.
type Store struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	rng     *rand.Rand

	cfg     Config
	rf      int
	readCL  ConsistencyLevel
	writeCL ConsistencyLevel

	ring *Ring
	// replicas and pendingHints are indexed by node id (ids are small and
	// allocated in sequence) and sized by addReplica; a nil replica was never
	// a ring member. A backlog holds a node's hints oldest first.
	replicas     []*replicaState
	pendingHints []hintQueue

	// Per-key state, indexed by KeyID (see keys.go). keys resolves names to
	// ids and back; tokens memoises each key's ring token, hashed from the
	// bytes of its name; latestAcked holds the newest acknowledged version
	// and ackedKeys counts the keys that have one.
	keys        Keys
	tokens      column[uint64]
	latestAcked column[version]
	ackedKeys   int
	nextVersion version

	// Recycled operation state: each record returns to its pool when its
	// last holder lets go (see ops.go).
	ops     sim.Pool[opState, *opState]
	windows sim.Pool[window, *window]
	hints   sim.Pool[hint, *hint]

	observers []Observer

	// tenants holds per-tenant ground-truth metric sets (index id-1) when
	// the scenario registered tenants; nil in untagged single-tenant mode.
	tenants []*tenantStats

	// Placement (class-aware replica selection). placements holds one entry
	// per pinned class, in pin order (empty = placement inactive and every
	// selection path identical to the pre-placement code); dedicated is the
	// sorted union of every class's pool; tenantPool maps, by id-1, each
	// tagged tenant to its class's placements index + 1 (0 = unpinned).
	// keyTenant records which tenant last wrote each key — only once
	// EnablePlacementTracking has set trackOwners, so scenarios that never
	// allow placement pay nothing — and lets repair paths converge a key onto
	// the same biased replica set reads contact.
	placements  []classPlacement
	dedicated   []cluster.NodeID
	tenantPool  []int
	keyTenant   column[TenantID]
	trackOwners bool
	// coordScratch backs the per-operation preferred-coordinator pool under
	// an active placement.
	coordScratch []*cluster.Node

	// tracer, when set, records sampled per-operation span trees. Nil (the
	// default) keeps every tracing branch off the hot path.
	tracer *obs.Tracer

	// Per-operation scratch buffers. The read/write hot path resolves a
	// preference list and partitions it into live/down replicas for every
	// operation; reusing these buffers keeps that path allocation-free. They
	// are only valid within one synchronous call chain — anything that must
	// survive an event boundary is copied into the operation's state.
	replicaScratch []cluster.NodeID
	liveScratch    []cluster.NodeID
	downScratch    []cluster.NodeID

	// ground-truth metrics
	readLatency      *metrics.Histogram
	writeLatency     *metrics.Histogram
	windowHist       *metrics.Histogram
	recentWindow     *metrics.WindowedStat
	reads            metrics.Counter
	writes           metrics.Counter
	readFailures     metrics.Counter
	writeFailures    metrics.Counter
	staleReads       metrics.Counter
	readRepairs      metrics.Counter
	hintsQueued      metrics.Counter
	hintsDelivered   metrics.Counter
	droppedMutations metrics.Counter
	lostUpdates      metrics.Counter
	aeRuns           metrics.Counter

	// replication-load feedback into the network model
	writesSinceTick uint64
	loadTicker      *sim.Ticker
	aeTicker        *sim.Ticker
	hintTicker      *sim.Ticker

	closed bool
}

// recycleOps is a test hook: while a test holds it false (export_test.go)
// released op states, windows and hints are left to the garbage collector,
// as if every operation allocated afresh, to prove that recycling is
// invisible in every report.
var recycleOps = true

// New creates a store on top of the given cluster and registers for
// membership changes. All currently available nodes join the ring. It takes
// a complete config; start from DefaultConfig.
func New(cfg Config, engine *sim.Engine, cl *cluster.Cluster, rnd *sim.RandSource) (*Store, error) {
	if engine == nil || cl == nil || rnd == nil {
		return nil, errors.New("store: engine, cluster and rand source are required")
	}
	if cfg.ReplicationFactor > MaxReplicationFactor {
		return nil, fmt.Errorf("store: replication factor %d above %d", cfg.ReplicationFactor, MaxReplicationFactor)
	}
	s := &Store{
		engine:       engine,
		cluster:      cl,
		rng:          rnd.Stream("store"),
		cfg:          cfg,
		rf:           cfg.ReplicationFactor,
		readCL:       cfg.ReadConsistency,
		writeCL:      cfg.WriteConsistency,
		ring:         NewRing(defaultVirtualNodes),
		readLatency:  metrics.NewHistogram(0),
		writeLatency: metrics.NewHistogram(0),
		windowHist:   metrics.NewHistogram(0),
		recentWindow: metrics.NewWindowedStat(2048),
	}
	for _, n := range cl.AvailableNodes() {
		s.ring.Add(n.ID())
		s.addReplica(n.ID())
	}
	cl.Subscribe(s)

	var err error
	s.loadTicker, err = sim.NewTicker(engine, time.Second, s.updateReplicationLoad)
	if err != nil {
		return nil, fmt.Errorf("store: replication load ticker: %w", err)
	}
	if cfg.AntiEntropyInterval > 0 {
		s.aeTicker, err = sim.NewTicker(engine, cfg.AntiEntropyInterval, s.runAntiEntropy)
		if err != nil {
			return nil, fmt.Errorf("store: anti-entropy ticker: %w", err)
		}
	}
	if cfg.HintedHandoff {
		s.hintTicker, err = sim.NewTicker(engine, hintRetryInterval, s.retryHints)
		if err != nil {
			return nil, fmt.Errorf("store: hint retry ticker: %w", err)
		}
	}
	return s, nil
}

var _ cluster.MembershipListener = (*Store)(nil)

// Close stops the store's background activities. Pending operations still
// complete; new operations fail with ErrStopped.
func (s *Store) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.loadTicker.Stop()
	if s.aeTicker != nil {
		s.aeTicker.Stop()
	}
	if s.hintTicker != nil {
		s.hintTicker.Stop()
	}
}

// SetTracer attaches (or, with nil, detaches) an operation tracer. Sampled
// operations record a span tree from dispatch to SLA accounting; unsampled
// operations pay one counter increment and the disabled path is untouched.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// Subscribe registers an observer for coordinator-level write observations.
func (s *Store) Subscribe(o Observer) {
	if o != nil {
		s.observers = append(s.observers, o)
	}
}

// ReplicationFactor returns the current replication factor.
func (s *Store) ReplicationFactor() int { return s.rf }

// ReadConsistency returns the current read consistency level.
func (s *Store) ReadConsistency() ConsistencyLevel { return s.readCL }

// WriteConsistency returns the current write consistency level.
func (s *Store) WriteConsistency() ConsistencyLevel { return s.writeCL }

// SetReadConsistency changes the consistency level for subsequent reads.
func (s *Store) SetReadConsistency(cl ConsistencyLevel) {
	if cl >= One && cl <= All {
		s.readCL = cl
	}
}

// SetWriteConsistency changes the consistency level for subsequent writes.
func (s *Store) SetWriteConsistency(cl ConsistencyLevel) {
	if cl >= One && cl <= All {
		s.writeCL = cl
	}
}

// SetReplicationFactor changes the number of replicas per key for subsequent
// writes. Increasing the factor triggers a background rebalance: existing
// nodes take on streaming load for a while and replication traffic rises,
// which is why the controller must apply this action judiciously.
func (s *Store) SetReplicationFactor(rf int) error {
	if rf < 1 || rf > MaxReplicationFactor {
		return fmt.Errorf("store: replication factor %d out of range", rf)
	}
	if rf == s.rf {
		return nil
	}
	grow := rf > s.rf
	s.rf = rf
	if grow {
		s.startRebalance()
	}
	return nil
}

// startRebalance imposes a temporary streaming load on available nodes and
// the network, modelling the data movement caused by growing the replica
// count, then repairs all keys so new replicas converge.
func (s *Store) startRebalance() {
	const rebalanceDuration = 45 * time.Second
	for _, n := range s.cluster.AvailableNodes() {
		n.SetRebalanceLoad(0.25)
	}
	s.cluster.Network().SetReplicationLoad(clampF(s.cluster.Network().ReplicationLoad()+0.3, 0, 1))
	s.engine.After(rebalanceDuration, func(time.Duration) {
		for _, n := range s.cluster.AvailableNodes() {
			n.SetRebalanceLoad(0)
		}
		s.repairAll()
	})
}

// NodeJoined implements cluster.MembershipListener. By the time the cluster
// reports the node as joined it has finished bootstrapping, which includes
// streaming the data for the ranges it now owns: its replica state is brought
// up to the latest acknowledged versions of those keys, and any hints queued
// for it while it was joining are delivered.
func (s *Store) NodeJoined(id cluster.NodeID) {
	s.addReplica(id)
	s.ring.Add(id)
	s.streamOwnedRanges(id)
	s.deliverHints(id)
}

// streamOwnedRanges models the data a bootstrapping node streamed from its
// peers: every key the node is now a replica for is applied at its latest
// acknowledged version. Under an active placement, ownership follows the
// biased per-tenant preference lists.
func (s *Store) streamOwnedRanges(id cluster.NodeID) {
	rep := s.replica(id)
	if rep == nil {
		return
	}
	for key, ver := range s.latestAcked.all() {
		if ver == 0 {
			continue
		}
		for _, owner := range s.replicasForRepair(key) {
			if owner == id {
				rep.apply(key, ver)
				break
			}
		}
	}
}

// NodeLeft implements cluster.MembershipListener. The node leaves the ring;
// write trackers waiting on it are released so windows stay well defined. A
// departing dedicated node also leaves the placement pool.
func (s *Store) NodeLeft(id cluster.NodeID) {
	s.ring.Remove(id)
	if slices.Contains(s.dedicated, id) {
		for pi := range s.placements {
			if i := slices.Index(s.placements[pi].nodes, id); i >= 0 {
				s.placements[pi].nodes = slices.Delete(s.placements[pi].nodes, i, i+1)
			}
		}
		s.rebuildDedicated()
	}
	if uint(id) < uint(len(s.pendingHints)) {
		for h := s.pendingHints[id].head; h != nil; {
			next := h.next
			h.win.replicaSettled(s.engine.Now())
			s.dropHint(h)
			h = next
		}
		s.pendingHints[id] = hintQueue{}
	}
}

// addReplica gives a node joining the ring its replica state, once, and
// makes room for its hint backlog.
func (s *Store) addReplica(id cluster.NodeID) {
	if n := int(id) + 1 - len(s.replicas); n > 0 {
		s.replicas = append(s.replicas, make([]*replicaState, n)...)
		s.pendingHints = append(s.pendingHints, make([]hintQueue, n)...)
	}
	if s.replicas[id] == nil {
		s.replicas[id] = newReplicaState(id)
	}
}

// replica returns a node's replica state, nil for a node that never joined.
func (s *Store) replica(id cluster.NodeID) *replicaState {
	if uint(id) < uint(len(s.replicas)) {
		return s.replicas[id]
	}
	return nil
}

// KeyID resolves a key name to the id the by-id operations take.
func (s *Store) KeyID(name Key) KeyID { return s.keys.ID(name) }

// KeyName returns the name of a key id, as a span, a recorded trace or a
// Result consumer needs it; the operation path never asks.
func (s *Store) KeyName(id KeyID) Key { return s.keys.Name(id) }

// token returns the key's ring token: hashString over the bytes of its name,
// computed on the key's first operation and memoised.
func (s *Store) token(id KeyID) uint64 {
	tok := s.tokens.at(id)
	if *tok == 0 {
		if id < 0 {
			*tok = hashString(s.keys.Name(id))
		} else {
			var buf [24]byte
			*tok = hashString(appendCanonical(buf[:0], int(id)))
		}
	}
	return *tok
}

// NodeFailed implements cluster.MembershipListener. A failed node keeps its
// ring position; writes destined for it accumulate as hints until it
// recovers or anti-entropy repairs it.
func (s *Store) NodeFailed(cluster.NodeID) {}

// NodeRecovered implements cluster.MembershipListener. Queued hints are
// flushed to the recovered replica.
func (s *Store) NodeRecovered(id cluster.NodeID) {
	s.deliverHints(id)
}

// Stats returns a snapshot of cumulative ground-truth statistics.
func (s *Store) Stats() Stats {
	return Stats{
		Reads:            s.reads.Value(),
		Writes:           s.writes.Value(),
		ReadFailures:     s.readFailures.Value(),
		WriteFailures:    s.writeFailures.Value(),
		StaleReads:       s.staleReads.Value(),
		ReadRepairs:      s.readRepairs.Value(),
		HintsQueued:      s.hintsQueued.Value(),
		HintsDelivered:   s.hintsDelivered.Value(),
		DroppedMutations: s.droppedMutations.Value(),
		LostUpdates:      s.lostUpdates.Value(),
		AntiEntropyRan:   s.aeRuns.Value(),
		ReadLatency:      s.readLatency.Snapshot(),
		WriteLatency:     s.writeLatency.Snapshot(),
		Window:           s.windowHist.Snapshot(),
	}
}

// RecentWindowQuantile returns the q-quantile (in seconds) of the true
// inconsistency window over the most recent writes. Experiments use it as
// ground truth; the controller does not.
func (s *Store) RecentWindowQuantile(q float64) float64 {
	return s.recentWindow.Quantile(q)
}

// ResetStats clears cumulative statistics (used between experiment phases).
func (s *Store) ResetStats() {
	s.readLatency.Reset()
	s.writeLatency.Reset()
	s.windowHist.Reset()
	s.reads.Reset()
	s.writes.Reset()
	s.readFailures.Reset()
	s.writeFailures.Reset()
	s.staleReads.Reset()
	s.readRepairs.Reset()
	s.hintsQueued.Reset()
	s.hintsDelivered.Reset()
	s.droppedMutations.Reset()
	s.lostUpdates.Reset()
	s.aeRuns.Reset()
}

// KeyCount returns the number of distinct keys acknowledged so far.
func (s *Store) KeyCount() int { return s.ackedKeys }

// ReplicaKeyCount returns how many keys the given node currently holds.
func (s *Store) ReplicaKeyCount(id cluster.NodeID) int {
	if r := s.replica(id); r != nil {
		return r.keys()
	}
	return 0
}

// updateReplicationLoad feeds the store's recent write fan-out back into the
// network model as replication-induced congestion.
func (s *Store) updateReplicationLoad(time.Duration) {
	writes := s.writesSinceTick
	s.writesSinceTick = 0
	fanout := float64(s.rf - 1)
	if fanout < 0 {
		fanout = 0
	}
	load := float64(writes) * fanout / nominalNetworkOpsPerSec
	s.cluster.Network().SetReplicationLoad(clampF(load, 0, 1))
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
