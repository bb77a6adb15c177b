package store

import (
	"math/rand"
	"slices"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

// refStore is a deliberately naive second implementation of the store's
// operation path, for FuzzStoreOpScript to hold the real one to: per-key state
// in maps keyed by name, a fresh state object and fresh closures for every
// operation and every hop, ring lookups by name into fresh slices, a hint
// backlog rebuilt on every round. It models exactly what the store models —
// same hops, same random draws in the same order, same counters — and nothing
// that only makes the store fast: no ids, no memoised tokens, no free lists,
// no scratch buffers, no pre-bound handlers. Tenants, placement and tracing
// are out of its scope.
type refStore struct {
	engine  *sim.Engine
	cluster *cluster.Cluster
	rng     *rand.Rand
	cfg     Config
	ring    *Ring

	versions map[cluster.NodeID]map[Key]uint64
	latest   map[Key]uint64
	next     uint64
	hints    map[cluster.NodeID][]refHint

	stats           Stats // counters only
	windows         []time.Duration
	writesSinceTick uint64
	closed          bool
	tickers         []*sim.Ticker
}

type refHint struct {
	key    Key
	ver    uint64
	w      *refWrite
	origin cluster.NodeID
}

type refWrite struct {
	s         *refStore
	key       Key
	ver       uint64
	issuedAt  time.Duration
	cb        func(Result)
	coord     *cluster.Node
	required  int
	possible  int
	acked     int
	answered  bool
	failed    bool
	ackAt     time.Duration
	remaining int
	lastApply time.Duration
	resolved  bool
	recorded  bool
}

func newRefStore(cfg Config, engine *sim.Engine, cl *cluster.Cluster, rnd *sim.RandSource) *refStore {
	s := &refStore{
		engine: engine, cluster: cl, rng: rnd.Stream("store"), cfg: cfg, ring: NewRing(defaultVirtualNodes),
		versions: map[cluster.NodeID]map[Key]uint64{}, latest: map[Key]uint64{}, hints: map[cluster.NodeID][]refHint{},
	}
	for _, n := range cl.AvailableNodes() {
		s.ring.Add(n.ID())
		s.versions[n.ID()] = map[Key]uint64{}
	}
	cl.Subscribe(s)
	tick := func(period time.Duration, fn sim.Handler) {
		t, err := sim.NewTicker(engine, period, fn)
		if err != nil {
			panic(err)
		}
		s.tickers = append(s.tickers, t)
	}
	tick(time.Second, func(time.Duration) {
		load := float64(s.writesSinceTick) * float64(cfg.ReplicationFactor-1) / nominalNetworkOpsPerSec
		s.writesSinceTick = 0
		cl.Network().SetReplicationLoad(clampF(load, 0, 1))
	})
	tick(cfg.AntiEntropyInterval, func(time.Duration) {
		s.stats.AntiEntropyRan++
		s.retryHints()
		s.repairAll()
	})
	tick(hintRetryInterval, func(time.Duration) { s.retryHints() })
	return s
}

func (s *refStore) close() {
	s.closed = true
	for _, t := range s.tickers {
		t.Stop()
	}
}

func (s *refStore) NodeJoined(id cluster.NodeID) {
	if s.versions[id] == nil {
		s.versions[id] = map[Key]uint64{}
	}
	s.ring.Add(id)
	for key, ver := range s.latest {
		if slices.Contains(s.ring.ReplicasFor(key, s.cfg.ReplicationFactor), id) {
			s.apply(id, key, ver)
		}
	}
	s.deliverHints(id)
}

func (s *refStore) NodeLeft(id cluster.NodeID) {
	s.ring.Remove(id)
	for _, h := range s.hints[id] {
		h.w.settled(s.engine.Now())
	}
	delete(s.hints, id)
}

func (s *refStore) NodeFailed(cluster.NodeID)       {}
func (s *refStore) NodeRecovered(id cluster.NodeID) { s.deliverHints(id) }

func (s *refStore) apply(id cluster.NodeID, key Key, ver uint64) {
	if m := s.versions[id]; m != nil && m[key] < ver {
		m[key] = ver
	}
}

func (s *refStore) up(id cluster.NodeID) bool {
	n, ok := s.cluster.Node(id)
	return ok && n.Available()
}

func (s *refStore) fail(kind OpKind, issued time.Duration, err error, cb func(Result)) {
	if cb == nil {
		return
	}
	s.engine.After(s.cluster.Network().ClientToNode()*2, func(at time.Duration) {
		cb(Result{Kind: kind, Err: err, IssuedAt: issued, CompletedAt: at, Latency: at - issued})
	})
}

// admit is the part of issuing an operation reads and writes share.
func (s *refStore) admit(kind OpKind, key Key, cl ConsistencyLevel, cb func(Result)) (coord *cluster.Node, live, down []cluster.NodeID, required int, ok bool) {
	now := s.engine.Now()
	failures := &s.stats.ReadFailures
	if kind == OpWrite {
		failures = &s.stats.WriteFailures
	}
	if s.closed {
		s.fail(kind, now, ErrStopped, cb)
		return
	}
	nodes := s.cluster.AvailableNodes()
	if len(nodes) == 0 {
		*failures++
		s.fail(kind, now, ErrNoNodes, cb)
		return
	}
	coord = nodes[s.rng.Intn(len(nodes))]
	replicas := s.ring.ReplicasFor(key, s.cfg.ReplicationFactor)
	if len(replicas) == 0 {
		*failures++
		s.fail(kind, now, ErrNoNodes, cb)
		return
	}
	required = cl.Required(len(replicas))
	for _, id := range replicas {
		if s.up(id) && s.cluster.Network().Reachable(coord.ID(), id) {
			live = append(live, id)
		} else {
			down = append(down, id)
		}
	}
	if len(live) < required {
		*failures++
		s.fail(kind, now, ErrUnavailable, cb)
		return
	}
	return coord, live, down, required, true
}

func (s *refStore) Write(key Key, cb func(Result)) {
	coord, live, down, required, ok := s.admit(OpWrite, key, s.cfg.WriteConsistency, cb)
	if !ok {
		return
	}
	s.stats.Writes++
	s.writesSinceTick++
	s.next++
	w := &refWrite{s: s, key: key, ver: s.next, issuedAt: s.engine.Now(), cb: cb, coord: coord,
		required: required, possible: len(live), remaining: len(live) + len(down)}
	for _, id := range down {
		s.queueHint(id, w)
	}
	net := s.cluster.Network()
	s.engine.After(net.ClientToNode(), func(arrival time.Duration) {
		d, accepted := coord.Enqueue(arrival, cluster.ForegroundOp)
		if !accepted {
			w.failed = true
			s.stats.WriteFailures++
			s.fail(OpWrite, w.issuedAt, ErrUnavailable, cb)
			return
		}
		done := arrival + d
		for _, id := range live {
			if id == coord.ID() {
				s.engine.After(delayUntil(s.engine.Now(), done), func(at time.Duration) { s.apply(id, key, w.ver); w.settled(at) })
				s.engine.After(delayUntil(s.engine.Now(), done), w.onAck)
				continue
			}
			s.engine.After(delayUntil(s.engine.Now(), done+net.NodeToNode()), func(arrive time.Duration) { w.arrive(id, arrive) })
		}
	})
}

func (w *refWrite) arrive(id cluster.NodeID, arrive time.Duration) {
	s := w.s
	hint := func() {
		s.queueHint(id, w)
		if w.failed {
			return
		}
		w.possible--
		if !w.answered && w.possible < w.required {
			w.failed = true
			s.stats.WriteFailures++
			s.fail(OpWrite, w.issuedAt, ErrUnavailable, w.cb)
		}
	}
	node, ok := s.cluster.Node(id)
	if !ok || !node.Available() || !s.cluster.Network().Reachable(w.coord.ID(), id) {
		hint()
		return
	}
	d, accepted := node.Enqueue(arrive, cluster.ReplicationApply)
	if !accepted {
		hint()
		return
	}
	if arrive+d-w.issuedAt > mutationDropTimeout {
		s.stats.DroppedMutations++
		hint()
		return
	}
	s.engine.After(delayUntil(s.engine.Now(), arrive+d), func(at time.Duration) { s.apply(id, w.key, w.ver); w.settled(at) })
	s.engine.After(delayUntil(s.engine.Now(), arrive+d+s.cluster.Network().NodeToNode()), w.onAck)
}

func (w *refWrite) onAck(at time.Duration) {
	s := w.s
	if w.failed {
		return
	}
	w.acked++
	if !w.answered && w.acked >= w.required {
		w.answered = true
		s.engine.After(delayUntil(s.engine.Now(), at+s.cluster.Network().ClientToNode()), func(at time.Duration) {
			if s.latest[w.key] < w.ver {
				s.latest[w.key] = w.ver
			}
			w.ackAt = at
			w.record()
			if w.cb != nil {
				w.cb(Result{Kind: OpWrite, IssuedAt: w.issuedAt, CompletedAt: at, Latency: at - w.issuedAt, Version: w.ver})
			}
		})
	}
}

// settled: one replica applied the write or never will.
func (w *refWrite) settled(at time.Duration) {
	if w.resolved {
		return
	}
	w.lastApply = max(w.lastApply, at)
	if w.remaining--; w.remaining <= 0 {
		w.resolved = true
		w.record()
	}
}

func (w *refWrite) record() {
	if w.recorded || !w.resolved || w.ackAt == 0 {
		return
	}
	w.recorded = true
	w.s.windows = append(w.s.windows, max(w.lastApply-w.ackAt, 0))
}

func (s *refStore) Read(key Key, cb func(Result)) {
	coord, live, _, required, ok := s.admit(OpRead, key, s.cfg.ReadConsistency, cb)
	if !ok {
		return
	}
	s.stats.Reads++
	issued := s.engine.Now()
	var contacted []cluster.NodeID
	responses, possible, freshest, divergent, done := 0, required, uint64(0), false, false
	lost := func() {
		if done {
			return
		}
		if possible--; possible < required {
			done = true
			s.stats.ReadFailures++
			s.fail(OpRead, issued, ErrUnavailable, cb)
		}
	}
	respond := func(id cluster.NodeID) sim.Handler {
		return func(at time.Duration) {
			if done {
				return
			}
			v := s.versions[id][key]
			responses++
			contacted = append(contacted, id)
			divergent = divergent || (v != freshest && responses > 1)
			freshest = max(freshest, v)
			if responses < required {
				return
			}
			done = true
			s.engine.After(delayUntil(s.engine.Now(), at+s.cluster.Network().ClientToNode()), func(at time.Duration) {
				latest := s.latest[key]
				stale := freshest < latest
				if stale {
					s.stats.StaleReads++
				}
				if s.cfg.ReadRepair && (divergent || stale) && latest != 0 && !s.cluster.Network().PartitionActive() {
					for _, id := range contacted {
						if m := s.versions[id]; m != nil && m[key] < latest {
							s.engine.After(readRepairDelay, func(time.Duration) {
								if s.up(id) && !s.cluster.Network().Isolated(id) && s.versions[id][key] < latest {
									s.versions[id][key] = latest
									s.stats.ReadRepairs++
								}
							})
						}
					}
				}
				if cb != nil {
					cb(Result{Kind: OpRead, IssuedAt: issued, CompletedAt: at, Latency: at - issued, Version: freshest, Stale: stale})
				}
			})
		}
	}
	net := s.cluster.Network()
	s.engine.After(net.ClientToNode(), func(arrival time.Duration) {
		d, accepted := coord.Enqueue(arrival, cluster.ForegroundOp)
		if !accepted {
			done = true
			s.stats.ReadFailures++
			s.fail(OpRead, issued, ErrUnavailable, cb)
			return
		}
		for _, id := range live[:required] {
			if id == coord.ID() {
				s.engine.After(delayUntil(s.engine.Now(), arrival+d), respond(id))
				continue
			}
			s.engine.After(delayUntil(s.engine.Now(), arrival+d+net.NodeToNode()), func(arrive time.Duration) {
				node, ok := s.cluster.Node(id)
				if !ok || !node.Available() || !net.Reachable(coord.ID(), id) {
					lost()
					return
				}
				d, accepted := node.Enqueue(arrive, cluster.ForegroundOp)
				if !accepted {
					lost()
					return
				}
				s.engine.After(delayUntil(s.engine.Now(), arrive+d+net.NodeToNode()), respond(id))
			})
		}
	})
}

func (s *refStore) queueHint(id cluster.NodeID, w *refWrite) {
	if (!s.cfg.HintedHandoff && s.cfg.AntiEntropyInterval <= 0) || len(s.hints[id]) >= maxPendingHintsPerNode || !s.ring.Contains(id) {
		s.stats.LostUpdates++
		w.settled(s.engine.Now())
		return
	}
	s.stats.HintsQueued++
	s.hints[id] = append(s.hints[id], refHint{key: w.key, ver: w.ver, w: w, origin: w.coord.ID()})
}

func (s *refStore) retryHints() {
	var ids []cluster.NodeID
	for id := range s.hints {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s.deliverHints(id)
	}
}

func (s *refStore) deliverHints(id cluster.NodeID) {
	net := s.cluster.Network()
	node, ok := s.cluster.Node(id)
	if len(s.hints[id]) == 0 || !ok || !node.Available() || net.Isolated(id) {
		return
	}
	limit := min(max(int(hintDeliveryCapacityShare*node.Capacity()*hintRetryInterval.Seconds()), 100), maxHintsPerDelivery)
	var batch, keep []refHint
	for _, h := range s.hints[id] {
		if len(batch) < limit && net.Reachable(h.origin, id) {
			batch = append(batch, h)
		} else {
			keep = append(keep, h)
		}
	}
	s.hints[id] = keep
	now := s.engine.Now()
	at := now
	for _, h := range batch {
		at += hintDeliveryDelay
		s.engine.After(delayUntil(now, at+net.NodeToNode()), func(arrived time.Duration) {
			if !net.Reachable(h.origin, id) || net.Isolated(id) {
				if s.ring.Contains(id) {
					s.hints[id] = append(s.hints[id], h)
					return
				}
			} else if target, ok := s.cluster.Node(id); ok && target.Available() {
				if d, accepted := target.Enqueue(arrived, cluster.ReplicationApply); accepted {
					s.stats.HintsDelivered++
					s.engine.After(delayUntil(s.engine.Now(), arrived+d), func(at time.Duration) { s.apply(id, h.key, h.ver); h.w.settled(at) })
					return
				}
			}
			s.stats.LostUpdates++
			h.w.settled(arrived)
		})
	}
}

func (s *refStore) repairAll() {
	if s.cluster.Network().PartitionActive() {
		return
	}
	for key, ver := range s.latest {
		for _, id := range s.ring.ReplicasFor(key, s.cfg.ReplicationFactor) {
			if m := s.versions[id]; m != nil && s.up(id) && m[key] < ver {
				m[key] = ver
				s.stats.ReadRepairs++
			}
		}
	}
}
