package store

import (
	"math"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/obs"
	"autonosql/internal/sim"
)

// The read and write paths are fully event-driven: every hop (client ->
// coordinator, coordinator -> replica, replica -> coordinator, coordinator ->
// client) is a scheduled event, and node work is enqueued at the virtual time
// it actually arrives at the node. This keeps the per-node queue model
// (a single busy-until executor) consistent: work is offered in arrival
// order, so queueing delays emerge from load instead of from event-creation
// order.
//
// Operation state is recycled, not garbage. A write is carried by three
// pooled records, each with its own holders:
//
//   - opState, the operation: the call that issued it and every scheduled
//     event whose argument is the state or one of its replica slots;
//   - window, a write's inconsistency-window tracker: the write's opState
//     and each of its hints;
//   - hint, a mutation queued for one replica: exactly one holder at a time,
//     the replica's backlog or the one replay event carrying it.
//
// An opState and a window count their holders (refs). Each holder takes one
// reference when it is created (newOp, after, admit, queueHint) and gives it
// back once: the call or the event when its step returns (release), the
// opState when it is recycled, a hint when it is freed (dropHint). The last
// one returns the record to its pool. A hint is freed when it is applied,
// lost, or dropped with a departed node. So a write's op state goes back to
// its pool as soon as its own events are done, and only the window, 48
// bytes, waits for the slowest replica. Every event is a package-level
// handler over a pre-bound pointer, so the whole path schedules without
// allocating.

// opState tracks one in-flight client operation at its coordinator. For a
// write: how many replica acknowledgements it still needs and how many can
// still arrive, and the window tracker its replicas settle. For a read: the
// answers so far and the freshest version among them.
//
// A saturated run holds thousands of these at once, so the layout is packed
// (TestOpStateSize): pointers and slices first, then the 8-byte key and
// times, then 4-byte versions and counters, then the one-byte flags and the
// failure code, with no padding between groups.
type opState struct {
	store *Store
	cb    func(Result)
	coord *cluster.Node
	// next links the state into its pool's free list.
	next *opState
	// trace is the sampled span tree for this operation, nil for unsampled
	// operations (and always nil with tracing off).
	trace *obs.OpTrace
	// win is a write's window tracker, nil for a read or a write rejected
	// before fan-out.
	win *window
	// The operation's slots (see slots) live inline for up to len(slotsBuf)
	// replicas — every factor a scenario uses — and in overflow for more.
	// overflow survives recycling, so a store running a large factor
	// allocates it once per state, not per operation.
	slotsBuf [5]opSlot
	overflow []opSlot

	key      KeyID
	issuedAt time.Duration
	// What the coordinator observes of a write's acknowledgements.
	ackDecidedAt time.Duration
	lastAckAt    time.Duration

	// ver is the version a write writes. A read keeps the freshest version
	// among its answers and the version read repair brings the stale
	// answering replicas up to.
	ver, freshest, repairTo version

	tenant int32
	// refs counts the state's holders, see above.
	refs int32
	// nslots is the number of slots: the replicas the coordinator fans out
	// to. replicas is the length of the preference list, which for a write
	// also counts the replicas unreachable at issue time (they get hints).
	nslots, replicas int32
	required         int32
	// possible is the number of replicas that can still answer (live
	// replicas whose mutation or request has not been dropped).
	possible  int32
	acked     int32
	responses int32

	write bool
	// answered: the consistency level was met and the client's answer is on
	// its way. failed: it cannot be met any more.
	answered  bool
	failed    bool
	observed  bool
	divergent bool
	// err is the failure a scheduled failEvent will deliver.
	err opErr
}

// slots returns one pre-bound slot per replica the coordinator fans out to,
// in preference order (for a read, the `required` replicas it contacts).
// Slot addresses are event arguments, so the slots are bound once, at
// admission.
func (op *opState) slots() []opSlot {
	if op.nslots <= int32(len(op.slotsBuf)) {
		return op.slotsBuf[:op.nslots]
	}
	return op.overflow[:op.nslots]
}

// opSlot is one replica's slot of an operation: the argument of that
// replica's events (arrival, apply or respond, read repair). It points back
// at the operation so package-level handlers can be scheduled with the
// engine's allocation-free AfterArg path. A read's slot also records where
// its replica's answer came in: read repair visits the answering replicas in
// arrival order. The two 4-byte fields keep the slot at 16 bytes.
type opSlot struct {
	op *opState
	id int32 // the replica's cluster.NodeID
	// rank is the answer's place in arrival order, from 1; 0 until it
	// answers.
	rank int32
}

// node is the slot's replica.
func (f *opSlot) node() cluster.NodeID { return cluster.NodeID(f.id) }

// Link returns the state's free-list link, for its sim.Pool.
func (op *opState) Link() **opState { return &op.next }

// opErr is an operation's failure in one byte; zero is none.
type opErr uint8

const (
	errStopped opErr = iota + 1
	errNoNodes
	errUnavailable
	errVersionsExhausted
)

// error returns the exported error the code stands for.
func (e opErr) error() error {
	return [...]error{nil, ErrStopped, ErrNoNodes, ErrUnavailable, ErrVersionsExhausted}[e]
}

// newOp takes an operation state out of its pool; the caller holds it.
func (s *Store) newOp(write bool, tenant TenantID, key KeyID, cb func(Result)) *opState {
	op := take(&s.ops)
	*op = opState{overflow: op.overflow}
	op.store, op.write, op.tenant, op.key, op.cb = s, write, int32(tenant), key, cb
	op.issuedAt = s.engine.Now()
	op.refs = 1
	return op
}

// release gives back one reference; the last one recycles the state and
// gives back its reference to the window.
func (s *Store) release(op *opState) {
	if op.refs--; op.refs == 0 {
		if op.win != nil {
			op.win.release()
		}
		recycle(&s.ops, op)
	}
}

// take takes a record out of its pool: the one put back last, or a
// never-used one when none is.
func take[T any, P sim.Linked[T]](p *sim.Pool[T, P]) *T {
	if x := p.Get(); x != nil {
		return x
	}
	return p.New()
}

// recycle puts x back into its pool, unless the recycleOps test hook holds
// recycling off.
func recycle[T any, P sim.Linked[T]](p *sim.Pool[T, P], x *T) {
	if recycleOps {
		p.Put(x)
	}
}

// after schedules one of the operation's events; the event holds the
// operation until its step has run.
func (op *opState) after(delay time.Duration, h sim.ArgHandler, arg any) {
	op.refs++
	op.store.engine.AfterArg(delay, h, arg)
}

// opEvent and slotEvent turn one step of an operation into an engine event
// handler that gives back the event's reference once the step has run.
func opEvent(step func(*opState, time.Duration)) sim.ArgHandler {
	return func(arg any, at time.Duration) {
		op := arg.(*opState)
		step(op, at)
		op.store.release(op)
	}
}

func slotEvent(step func(*opSlot, time.Duration)) sim.ArgHandler {
	return func(arg any, at time.Duration) {
		f := arg.(*opSlot)
		step(f, at)
		f.op.store.release(f.op)
	}
}

// The events of the operation path, bound once.
var (
	dispatchEvent    = opEvent((*opState).coordinate)
	failEvent        = opEvent((*opState).deliverFailure)
	ackEvent         = opEvent((*opState).onAck)
	clientAckEvent   = opEvent((*opState).ackClient)
	clientDoneEvent  = opEvent((*opState).finishRead)
	writeArriveEvent = slotEvent((*opSlot).arriveWrite)
	writeApplyEvent  = slotEvent((*opSlot).applyWrite)
	readArriveEvent  = slotEvent((*opSlot).arriveRead)
	respondEvent     = slotEvent((*opSlot).respond)
	readRepairEvent  = slotEvent((*opSlot).repair)
	hintArriveEvent  = sim.ArgHandler(func(arg any, at time.Duration) { arg.(*hint).arrive(at) })
	hintApplyEvent   = sim.ArgHandler(func(arg any, at time.Duration) { arg.(*hint).apply(at) })
)

// result starts the Result of an operation completing at the given time.
func (op *opState) result(at time.Duration) Result {
	kind := OpRead
	if op.write {
		kind = OpWrite
	}
	return Result{Kind: kind, ID: op.key, IssuedAt: op.issuedAt, CompletedAt: at, Latency: at - op.issuedAt}
}

// Write stores a new version of the named key and invokes cb when the client
// is acknowledged (or when the operation fails). The acknowledgement point is
// determined by the current write consistency level; remaining replicas
// converge asynchronously and the elapsed time until they do is recorded as
// the write's inconsistency window.
func (s *Store) Write(key Key, cb func(Result)) { s.issue(true, 0, s.keys.ID(key), cb) }

// WriteID is Write for a key already resolved to its id.
func (s *Store) WriteID(key KeyID, cb func(Result)) { s.issue(true, 0, key, cb) }

// WriteAs is WriteID with a tenant tag: the operation contributes to the
// tagged tenant's ground-truth statistics (latency, failures, inconsistency
// window) in addition to the aggregate set. Tag zero is the plain untagged
// write.
func (s *Store) WriteAs(tenant TenantID, key KeyID, cb func(Result)) { s.issue(true, tenant, key, cb) }

// Read fetches the named key and invokes cb with the freshest version
// observed among the replicas the read consistency level requires.
func (s *Store) Read(key Key, cb func(Result)) { s.issue(false, 0, s.keys.ID(key), cb) }

// ReadID is Read for a key already resolved to its id.
func (s *Store) ReadID(key KeyID, cb func(Result)) { s.issue(false, 0, key, cb) }

// ReadAs is ReadID with a tenant tag, mirroring WriteAs.
func (s *Store) ReadAs(tenant TenantID, key KeyID, cb func(Result)) { s.issue(false, tenant, key, cb) }

func (s *Store) issue(write bool, tenant TenantID, key KeyID, cb func(Result)) {
	op := s.newOp(write, tenant, s.keys.local(key), cb)
	s.admit(op)
	s.release(op)
}

// admit picks the operation's coordinator and replicas and, if enough of
// them are reachable for its consistency level, sends it on the client ->
// coordinator leg.
func (s *Store) admit(op *opState) {
	now := op.issuedAt
	if s.closed {
		s.fail(op, errStopped)
		return
	}
	op.trace = s.beginTrace(op.write, op.key, now)
	tenant := TenantID(op.tenant)
	coord, ok := s.pickCoordinatorTenant(tenant)
	if !ok {
		s.reject(op, now, errNoNodes)
		return
	}
	replicaIDs := s.appendReplicasTenant(tenant, op.key)
	if len(replicaIDs) == 0 {
		s.reject(op, now, errNoNodes)
		return
	}
	cl := s.readCL
	if op.write {
		cl = s.writeCL
	}
	required := cl.Required(len(replicaIDs))
	op.required = int32(required)
	live, down := s.partitionReplicas(coord.ID(), replicaIDs)
	if len(live) < required {
		s.reject(op, now, errUnavailable)
		return
	}

	if op.write && s.nextVersion == math.MaxUint32 {
		s.reject(op, now, errVersionsExhausted)
		return
	}

	op.coord = coord
	t := s.tenant(tenant)
	if op.write {
		s.writes.Inc()
		if t != nil {
			t.writes.Inc()
		}
		if s.trackOwners && tenant > 0 {
			*s.keyTenant.at(op.key) = tenant
		}
		s.writesSinceTick++
		s.nextVersion++
		op.ver = s.nextVersion
		op.possible = int32(len(live))
		op.win = take(&s.windows)
		*op.win = window{store: s, trace: op.trace, remaining: int16(len(replicaIDs)), refs: 1}
		if t != nil {
			op.win.tenant = int16(tenant)
		}
	} else {
		s.reads.Inc()
		if t != nil {
			t.reads.Inc()
		}
		// Contact exactly `required` live replicas in preference order, as a
		// token-aware driver would.
		op.possible = op.required
		live, down = live[:required], nil
	}
	op.trace.Add(now, "dispatch", int(coord.ID()))

	// live and down point into per-operation scratch buffers, which the next
	// operation overwrites; the slots and the hints keep them.
	n := len(live)
	if n > len(op.slotsBuf) && cap(op.overflow) < n {
		op.overflow = make([]opSlot, n)
	}
	op.nslots, op.replicas = int32(n), int32(len(replicaIDs))
	slots := op.slots()
	for i, id := range live {
		slots[i] = opSlot{op: op, id: int32(id)}
	}
	// Unreachable replicas get hints (or are dropped, counted as lost).
	for _, id := range down {
		s.queueHint(op, int32(id))
	}

	// Client -> coordinator.
	op.after(s.cluster.Network().ClientToNode(), dispatchEvent, op)
}

// reject fails the operation: failure counters, the span's end, and a
// failure result after a minimal client round trip.
func (s *Store) reject(op *opState, at time.Duration, err opErr) {
	op.failed = true
	s.countFailure(TenantID(op.tenant), op.write)
	s.finishTrace(op.trace, at, err.error())
	s.fail(op, err)
}

// fail delivers a failure result after a minimal client round trip.
func (s *Store) fail(op *opState, err opErr) {
	if op.cb == nil {
		return
	}
	op.err = err
	op.after(s.cluster.Network().ClientToNode()*2, failEvent, op)
}

func (op *opState) deliverFailure(at time.Duration) {
	res := op.result(at)
	res.Err = op.err.error()
	op.cb(res)
}

// coordinate runs on the coordinator once the client request arrives: the
// coordinator processes the request locally — applying a mutation, answering
// a read from its own replica — and fans it out to the other replicas.
func (op *opState) coordinate(arrival time.Duration) {
	s := op.store
	coordDelay, accepted := op.coord.Enqueue(arrival, cluster.ForegroundOp)
	if !accepted {
		op.trace.AddNote(arrival, "coordinate", int(op.coord.ID()), "reject")
		s.reject(op, arrival, errUnavailable)
		return
	}
	coordDone := arrival + coordDelay
	op.trace.Add(coordDone, "coordinate", int(op.coord.ID()))
	net := s.cluster.Network()

	slots := op.slots()
	for i := range slots {
		f := &slots[i]
		switch {
		case f.node() != op.coord.ID():
			arrive := writeArriveEvent
			if !op.write {
				arrive = readArriveEvent
			}
			sendLeg := net.NodeToNode()
			op.after(delayUntil(s.engine.Now(), coordDone+sendLeg), arrive, f)
		case op.write:
			// The coordinator applies the mutation as part of processing it
			// and acknowledges itself immediately afterwards.
			op.after(delayUntil(s.engine.Now(), coordDone), writeApplyEvent, f)
			op.after(delayUntil(s.engine.Now(), coordDone), ackEvent, op)
		default:
			op.after(delayUntil(s.engine.Now(), coordDone), respondEvent, f)
		}
	}
}

// onReplicaLost records that one replica will not answer (dropped mutation,
// unreachable node). If the operation can no longer reach its consistency
// level it fails with ErrUnavailable, mirroring a timeout.
func (op *opState) onReplicaLost() {
	if op.failed || (op.answered && !op.write) {
		return
	}
	op.possible--
	if !op.answered {
		if op.possible < op.required {
			op.store.reject(op, op.store.engine.Now(), errUnavailable)
		}
	} else if op.acked >= op.possible {
		op.emitObservation()
	}
}

// arriveWrite runs on a replica when a replicated mutation arrives. The
// mutation is applied unless it would be older than the drop timeout by the
// time the replica gets to it, in which case it is dropped and becomes a
// hint — the overload behaviour of Dynamo-style stores, and the mechanism
// that blows the inconsistency window up when replicas cannot keep up.
func (f *opSlot) arriveWrite(arrive time.Duration) {
	w, s, id := f.op, f.op.store, f.node()
	node, ok := s.cluster.Node(id)
	if !ok || !node.Available() || !s.cluster.Network().Reachable(w.coord.ID(), id) {
		// Down, removed, or a partition opened between dispatch and arrival:
		// the mutation cannot be delivered and becomes a hint.
		f.hintInstead(arrive, "unreachable")
		return
	}
	applyDelay, accepted := node.Enqueue(arrive, cluster.ReplicationApply)
	if !accepted {
		f.hintInstead(arrive, "overload")
		return
	}
	applyAt := arrive + applyDelay
	if applyAt-w.issuedAt > mutationDropTimeout {
		s.droppedMutations.Inc()
		f.hintInstead(arrive, "drop-timeout")
		return
	}
	w.trace.Add(arrive, "replica-arrive", int(id))
	w.after(delayUntil(s.engine.Now(), applyAt), writeApplyEvent, f)
	ackAt := applyAt + s.cluster.Network().NodeToNode()
	w.after(delayUntil(s.engine.Now(), ackAt), ackEvent, w)
}

// hintInstead turns a mutation its replica could not take into a hint.
func (f *opSlot) hintInstead(arrive time.Duration, why string) {
	f.op.trace.AddNote(arrive, "replica-hint", int(f.id), why)
	f.op.store.queueHint(f.op, f.id)
	f.op.onReplicaLost()
}

func (f *opSlot) applyWrite(applied time.Duration) {
	w := f.op
	w.trace.Add(applied, "replica-apply", int(f.id))
	w.store.applyMutation(f.node(), w.key, w.ver)
	w.win.replicaSettled(applied)
}

// applyMutation applies a version of a key to a node's replica, if the node
// ever joined the ring.
func (s *Store) applyMutation(id cluster.NodeID, key KeyID, ver version) {
	if rep := s.replica(id); rep != nil {
		rep.apply(key, ver)
	}
}

// onAck records one replica acknowledgement arriving at the coordinator.
func (w *opState) onAck(at time.Duration) {
	if w.failed {
		return
	}
	w.acked++
	if at > w.lastAckAt {
		w.lastAckAt = at
	}
	w.trace.Add(at, "ack", 0)
	if !w.answered && w.acked >= w.required {
		// Acknowledge the client now that the required replica
		// acknowledgements have arrived at the coordinator.
		w.answered = true
		w.ackDecidedAt = at
		w.trace.Add(at, "quorum", 0)
		clientAck := at + w.store.cluster.Network().ClientToNode()
		w.after(delayUntil(w.store.engine.Now(), clientAck), clientAckEvent, w)
	}
	if w.acked >= w.possible {
		w.emitObservation()
	}
}

// emitObservation hands the coordinator-level view of the write to passive
// monitors once every reachable replica has acknowledged. Both timestamps are
// in the coordinator's frame: the moment the consistency level was satisfied
// and the moment the last reachable replica acknowledged.
func (w *opState) emitObservation() {
	if w.observed || !w.answered || w.acked == 0 {
		return
	}
	w.observed = true
	ob := WriteObservation{
		IssuedAt:  w.issuedAt,
		AckedAt:   w.ackDecidedAt,
		LastAckAt: w.lastAckAt,
		Replicas:  int(w.replicas),
		Acked:     int(w.acked),
	}
	for _, o := range w.store.observers {
		o.ObserveWrite(ob)
	}
}

// ackClient completes an acknowledged write at the client.
func (w *opState) ackClient(at time.Duration) {
	s := w.store
	if cur := s.latestAcked.at(w.key); w.ver > *cur {
		if *cur == 0 {
			s.ackedKeys++
		}
		*cur = w.ver
	}
	w.trace.Add(at, "client-ack", 0)
	w.win.setAck(at)
	res := w.result(at)
	res.Version = uint64(w.ver)
	s.writeLatency.ObserveDuration(res.Latency)
	if t := s.tenant(TenantID(w.tenant)); t != nil {
		t.writeLatency.ObserveDuration(res.Latency)
	}
	if w.cb != nil {
		w.cb(res)
	}
}

// arriveRead runs on a replica when a read request arrives; the replica
// reports the version it holds once it has processed the request.
func (f *opSlot) arriveRead(arrive time.Duration) {
	r, s, id := f.op, f.op.store, f.node()
	node, ok := s.cluster.Node(id)
	if !ok || !node.Available() || !s.cluster.Network().Reachable(r.coord.ID(), id) {
		r.trace.AddNote(arrive, "replica-lost", int(id), "unreachable")
		r.onReplicaLost()
		return
	}
	delay, accepted := node.Enqueue(arrive, cluster.ForegroundOp)
	if !accepted {
		r.trace.AddNote(arrive, "replica-lost", int(id), "overload")
		r.onReplicaLost()
		return
	}
	processAt := arrive + delay
	r.trace.Add(arrive, "replica-arrive", int(id))
	respondAt := processAt + s.cluster.Network().NodeToNode()
	r.after(delayUntil(s.engine.Now(), respondAt), respondEvent, f)
}

// respond records one replica's answer arriving back at the coordinator; the
// version is read at response time.
func (f *opSlot) respond(at time.Duration) {
	r := f.op
	if r.answered || r.failed {
		return
	}
	v := version(0)
	if rep := r.store.replica(f.node()); rep != nil {
		v = rep.read(r.key)
	}
	r.responses++
	f.rank = r.responses
	r.trace.Add(at, "replica-respond", int(f.id))
	if v != r.freshest && r.responses > 1 {
		r.divergent = true
	}
	if v > r.freshest {
		r.freshest = v
	}
	if r.responses >= r.required {
		// Return the merged result to the client.
		r.answered = true
		r.trace.Add(at, "quorum", 0)
		clientDone := at + r.store.cluster.Network().ClientToNode()
		r.after(delayUntil(r.store.engine.Now(), clientDone), clientDoneEvent, r)
	}
}

// finishRead completes a read at the client.
func (r *opState) finishRead(at time.Duration) {
	s := r.store
	latest := s.latestAcked.get(r.key)
	res := r.result(at)
	res.Version = uint64(r.freshest)
	res.Stale = r.freshest < latest
	if res.Stale {
		s.staleReads.Inc()
		r.trace.AddNote(at, "client-done", 0, "stale")
	} else {
		r.trace.Add(at, "client-done", 0)
	}
	s.finishTrace(r.trace, at, nil)
	if s.cfg.ReadRepair && (r.divergent || res.Stale) {
		r.scheduleReadRepair(latest)
	}
	s.readLatency.ObserveDuration(res.Latency)
	if t := s.tenant(TenantID(r.tenant)); t != nil {
		if res.Stale {
			t.staleReads.Inc()
		}
		t.readLatency.ObserveDuration(res.Latency)
	}
	if r.cb != nil {
		r.cb(res)
	}
}

// scheduleReadRepair propagates the newest acknowledged version of the read's
// key to the replicas that answered the read and are (or are suspected)
// stale, in the order their answers arrived.
func (r *opState) scheduleReadRepair(latest version) {
	s := r.store
	// latestAcked is cluster-wide knowledge: while a partition is active it
	// includes versions acknowledged on the *other* side of the cut (a
	// minority coordinator keeps acking CL=ONE writes), which no repair
	// message could physically carry across. Repairing from it in either
	// direction would close the split-brain window early, so read repair
	// pauses entirely for the duration of the partition, exactly like the
	// anti-entropy sweep.
	if latest == 0 || s.cluster.Network().PartitionActive() {
		return
	}
	r.repairTo = latest
	slots := r.slots()
	for rank := int32(1); rank <= r.responses; rank++ {
		i := 0
		for slots[i].rank != rank {
			i++
		}
		f := &slots[i]
		if rep := s.replica(f.node()); rep != nil && rep.read(r.key) < latest {
			r.after(readRepairDelay, readRepairEvent, f)
		}
	}
}

// repair brings one contacted replica up to the version the read found
// acknowledged, unless the node crashed or was partitioned away since the
// read — a repair mutation cannot reach it then.
func (f *opSlot) repair(time.Duration) {
	r, s := f.op, f.op.store
	if node, up := s.cluster.Node(f.node()); !up || !node.Available() || s.cluster.Network().Isolated(f.node()) {
		return
	}
	if rep := s.replica(f.node()); rep != nil && rep.read(r.key) < r.repairTo {
		rep.apply(r.key, r.repairTo)
		s.readRepairs.Inc()
	}
}

// beginTrace fronts one operation past the tracer's sampler: a trace staged
// by an upstream layer (the tenant runtime, which already counted the op) is
// adopted, otherwise the sampler decides. Returns nil — and does no work —
// for unsampled operations or when tracing is off; the key's name is looked
// up for sampled operations only.
func (s *Store) beginTrace(write bool, key KeyID, now time.Duration) *obs.OpTrace {
	if s.tracer == nil {
		return nil
	}
	if tr, fronted := s.tracer.Handoff(); fronted {
		return tr
	}
	tr := s.tracer.Begin("", write, "", now)
	if tr != nil {
		tr.Key = string(s.keys.Name(key))
	}
	return tr
}

// finishTrace closes a sampled span tree on a completion or failure path.
// Nil-safe on both the trace and the tracer, and idempotent per trace.
func (s *Store) finishTrace(tr *obs.OpTrace, at time.Duration, err error) {
	if tr == nil || s.tracer == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.tracer.Finish(tr, at, msg)
}

// pickCoordinator selects a random available node to coordinate an
// operation, mirroring a client driver with a round-robin/token-aware
// policy.
func (s *Store) pickCoordinator() (*cluster.Node, bool) {
	nodes := s.cluster.AvailableNodes()
	if len(nodes) == 0 {
		return nil, false
	}
	return nodes[s.rng.Intn(len(nodes))], true
}

// appendReplicas resolves the key's preference list into the store's scratch
// buffer. The result is valid until the next operation; callers that need to
// retain it past an event boundary must copy it.
func (s *Store) appendReplicas(key KeyID) []cluster.NodeID {
	s.replicaScratch = s.ring.appendReplicasAt(s.replicaScratch[:0], s.token(key), s.rf)
	return s.replicaScratch
}

// partitionReplicas splits a preference list into live and unavailable
// replica IDs from the point of view of the coordinating node: a replica is
// live only when it is up AND reachable from the coordinator under the
// current network partition. Both results live in per-store scratch buffers
// that the next operation overwrites.
func (s *Store) partitionReplicas(coord cluster.NodeID, ids []cluster.NodeID) (live, down []cluster.NodeID) {
	s.liveScratch = s.liveScratch[:0]
	s.downScratch = s.downScratch[:0]
	net := s.cluster.Network()
	for _, id := range ids {
		if n, ok := s.cluster.Node(id); ok && n.Available() && net.Reachable(coord, id) {
			s.liveScratch = append(s.liveScratch, id)
		} else {
			s.downScratch = append(s.downScratch, id)
		}
	}
	return s.liveScratch, s.downScratch
}

// delayUntil converts an absolute virtual time into a non-negative delay from
// now.
func delayUntil(now, at time.Duration) time.Duration {
	if at <= now {
		return 0
	}
	return at - now
}

// maxPendingHintsPerNode bounds the hint backlog kept for one replica; real
// stores bound their hint windows the same way and fall back to repair once
// the backlog overflows.
const maxPendingHintsPerNode = 100000

// hintDeliveryCapacityShare is the fraction of a replica's throughput one
// hint-delivery round may consume. Replaying hints costs the same node work
// as regular replication applies, so an unthrottled replay would keep an
// already struggling replica saturated forever; real stores throttle hint
// delivery for exactly this reason.
const hintDeliveryCapacityShare = 0.15

// maxHintsPerDelivery is the absolute ceiling on hints replayed in one round.
const maxHintsPerDelivery = 20000

// hint is a mutation queued for a replica that could not take it: what a
// replay needs to apply it (key, version, target) and to cross a partition
// the way the write would have (the coordinator), plus the write's window,
// which the replica settles. It has one holder at a time, its replica's
// backlog or the one replay event carrying it, so one link serves its pool's
// free list and the backlog. It is 32 bytes (TestOpStateSize): a saturated
// run queues tens of thousands. The key is a KeyID in 32 bits: dense ids stay
// below denseKeys and interned ones count down from -1, one per distinct
// name.
type hint struct {
	win         *window
	next        *hint
	key         int32
	ver         version
	coord, node int32 // cluster.NodeIDs
}

// Link returns the hint's link, for its sim.Pool and its replica's backlog.
func (h *hint) Link() **hint { return &h.next }

// hintQueue is one replica's hint backlog, oldest first: a FIFO threaded
// through the hints' own links, so queueing allocates nothing however deep
// the backlog grows.
type hintQueue struct {
	head, tail *hint
	n          int
}

// push appends h to the queue.
func (q *hintQueue) push(h *hint) {
	h.next = nil
	if q.tail == nil {
		q.head = h
	} else {
		q.tail.next = h
	}
	q.tail = h
	q.n++
}

// unlink removes h, which follows prev in the queue (nil when h is the
// head).
func (q *hintQueue) unlink(prev, h *hint) {
	if prev == nil {
		q.head = h.next
	} else {
		prev.next = h.next
	}
	if q.tail == h {
		q.tail = prev
	}
	q.n--
}

// queueHint records a mutation of the write op destined for an unavailable
// (or overloaded) replica. With hinted handoff disabled and no
// anti-entropy, with the replica's hint window full, or with the replica
// gone from the ring (its backlog was released when it left, and nothing
// replays into it again), the update is lost until a newer write or a repair
// arrives (counted as a lost update) and the replica is discounted so the
// window stays defined.
func (s *Store) queueHint(op *opState, node int32) {
	if (!s.cfg.HintedHandoff && s.cfg.AntiEntropyInterval <= 0) || s.pendingHints[node].n >= maxPendingHintsPerNode ||
		!s.ring.Contains(cluster.NodeID(node)) {
		s.lostUpdates.Inc()
		op.win.replicaSettled(s.engine.Now())
		return
	}
	s.hintsQueued.Inc()
	h := take(&s.hints)
	*h = hint{win: op.win, key: int32(op.key), ver: op.ver, coord: int32(op.coord.ID()), node: node}
	op.win.refs++
	s.pushHint(h)
}

// pushHint appends a hint to its replica's backlog.
func (s *Store) pushHint(h *hint) { s.pendingHints[h.node].push(h) }

// dropHint frees a hint that has been applied, lost or dropped with its
// replica, giving back its reference to the window.
func (s *Store) dropHint(h *hint) {
	h.win.release()
	recycle(&s.hints, h)
}

// retryHints periodically redelivers queued hints to nodes that are
// available, so dropped mutations converge without waiting for the full
// anti-entropy sweep. Backlogs are visited in ascending node order: delivery
// draws network jitter from a shared random stream and schedules events.
func (s *Store) retryHints(time.Duration) {
	for id := range s.pendingHints {
		s.deliverHints(cluster.NodeID(id))
	}
}

// deliverHints flushes queued hints (up to maxHintsPerDelivery) to a node
// that has become available. Each hint is replayed as a replication apply at
// the time it would actually reach the node: the hint is unlinked from the
// backlog for its replay event, and the hints left behind keep their order.
func (s *Store) deliverHints(id cluster.NodeID) {
	if uint(id) >= uint(len(s.pendingHints)) || s.pendingHints[id].n == 0 {
		return // also a node that crashed and recovered before it ever joined
	}
	q := &s.pendingHints[id]
	node, ok := s.cluster.Node(id)
	net := s.cluster.Network()
	if !ok || !node.Available() || net.Isolated(id) {
		// Still down or cut off behind a partition (hint replay originates on
		// the majority side); keep the backlog queued.
		return
	}
	// Throttle the replay to a fraction of the replica's capacity over one
	// retry interval so hint delivery cannot keep the replica saturated.
	limit := int(hintDeliveryCapacityShare * node.Capacity() * hintRetryInterval.Seconds())
	limit = min(max(limit, 100), maxHintsPerDelivery)
	// A hint replays only when its originating coordinator's side can reach
	// the target: a write acknowledged on the minority side of a partition
	// must stay invisible to the majority until the heal, or the split-brain
	// inconsistency window would close at the first retry tick instead of at
	// the heal.
	partitioned := net.PartitionActive()
	now := s.engine.Now()
	at := now
	var prev *hint
	for h := q.head; h != nil && limit > 0; {
		next := h.next
		if partitioned && !net.Reachable(cluster.NodeID(h.coord), id) {
			prev, h = h, next
			continue
		}
		q.unlink(prev, h)
		limit--
		at += hintDeliveryDelay
		arrive := at + net.NodeToNode()
		s.engine.AfterArg(delayUntil(now, arrive), hintArriveEvent, h)
		h = next
	}
}

// arrive runs when a replayed hint reaches its replica.
func (h *hint) arrive(arrived time.Duration) {
	s, id := h.win.store, cluster.NodeID(h.node)
	net := s.cluster.Network()
	if !net.Reachable(cluster.NodeID(h.coord), id) || net.Isolated(id) {
		// A partition may have opened between batch assembly and arrival; a
		// delivery that can no longer cross the (new) cut is requeued rather
		// than applied, the same arrival-time recheck every other replication
		// path performs. A replica that left the ring meanwhile has no
		// backlog to requeue into: the update is lost.
		if s.ring.Contains(id) {
			s.pushHint(h)
			return
		}
	} else if target, ok := s.cluster.Node(id); ok && target.Available() {
		if d, accepted := target.Enqueue(arrived, cluster.ReplicationApply); accepted {
			s.hintsDelivered.Inc()
			s.engine.AfterArg(delayUntil(s.engine.Now(), arrived+d), hintApplyEvent, h)
			return
		}
	}
	s.lostUpdates.Inc()
	h.win.replicaSettled(arrived)
	s.dropHint(h)
}

// apply applies a replayed hint: applyWrite without the span marker of the
// regular replication path.
func (h *hint) apply(applied time.Duration) {
	s := h.win.store
	s.applyMutation(cluster.NodeID(h.node), KeyID(h.key), h.ver)
	h.win.replicaSettled(applied)
	s.dropHint(h)
}

// runAntiEntropy periodically repairs divergence: every queued hint for an
// available node is delivered, and every live replica is brought up to the
// latest acknowledged version of the keys it owns.
func (s *Store) runAntiEntropy(now time.Duration) {
	s.aeRuns.Inc()
	s.retryHints(now)
	s.repairAll()
}

// repairAll brings every live replica up to the newest acknowledged version
// of each key it is responsible for. It models the effect of a completed
// Merkle-tree repair without tracking per-key digests. Crashed replicas are
// skipped — a repair stream cannot reach a node that is down — and the whole
// sweep aborts while a partition is active: a repair session needs the
// replica set connected, and latestAcked holds cluster-wide knowledge
// (including minority-acknowledged versions) that no single side possesses
// during the cut. Divergence therefore persists until nodes recover or the
// partition heals, which is exactly the window the fault scenarios measure.
func (s *Store) repairAll() {
	if s.cluster.Network().PartitionActive() {
		return
	}
	for key, ver := range s.latestAcked.all() {
		if ver == 0 {
			continue
		}
		for _, id := range s.replicasForRepair(key) {
			rep := s.replica(id)
			if rep == nil {
				continue
			}
			if node, up := s.cluster.Node(id); !up || !node.Available() {
				continue
			}
			if rep.read(key) < ver {
				rep.apply(key, ver)
				s.readRepairs.Inc()
			}
		}
	}
}

// window tracks a write's true inconsistency window, from the client's
// acknowledgement (ackAt) to the last replica's apply (lastApply), until no
// replica remains outstanding. Its holders are the write's op state and each
// of the write's hints (see the top of this file); refs counts them.
//
// It is 48 bytes (TestOpStateSize), so the counters are 16 bits wide: tenant
// is a registered tenant's id or 0 (RegisterTenants takes at most
// math.MaxInt16), remaining is at most the replication factor and refs one
// more (MaxReplicationFactor).
type window struct {
	store            *Store
	trace            *obs.OpTrace
	ackAt, lastApply time.Duration
	// next links the window into its pool's free list.
	next *window
	// remaining replicas have neither applied the write nor been
	// discounted.
	tenant, remaining, refs int16
	resolved, recorded      bool
}

// Link returns the window's free-list link, for its sim.Pool.
func (w *window) Link() **window { return &w.next }

// release gives back one reference; the last one recycles the window.
func (w *window) release() {
	if w.refs--; w.refs == 0 {
		recycle(&w.store.windows, w)
	}
}

// replicaSettled is called when one replica has applied the write, or will
// never apply it (node removed, update dropped) and is discounted.
func (w *window) replicaSettled(at time.Duration) {
	if w.resolved {
		return
	}
	if at > w.lastApply {
		w.lastApply = at
	}
	w.remaining--
	if w.remaining <= 0 {
		w.resolved = true
		w.recordWindow()
	}
}

// setAck records when the client was acknowledged. If every replica has
// already applied the write (possible for strict consistency levels, where
// the client acknowledgement trails the last apply), the window is recorded
// now; otherwise replicaSettled records it once no replica remains
// outstanding.
func (w *window) setAck(at time.Duration) {
	w.ackAt = at
	if w.resolved {
		w.recordWindow()
	}
}

// recordWindow writes the window into the store's ground-truth histograms
// exactly once. Writes that were never acknowledged have no client-observable
// window and are skipped.
func (w *window) recordWindow() {
	if w.recorded || w.ackAt == 0 {
		return
	}
	w.recorded = true
	s := w.store
	d := max(w.lastApply-w.ackAt, 0)
	if w.trace != nil {
		w.trace.Add(w.lastApply, "sla-account", 0)
		s.finishTrace(w.trace, w.lastApply, nil)
	}
	s.windowHist.ObserveDuration(d)
	s.recentWindow.Observe(d.Seconds())
	if ts := s.tenant(TenantID(w.tenant)); ts != nil {
		ts.windowHist.ObserveDuration(d)
		ts.recentWindow.Observe(d.Seconds())
	}
}
