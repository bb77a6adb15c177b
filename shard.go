package autonosql

import (
	"fmt"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
	"autonosql/internal/workload"
)

// defaultEpoch is the lockstep window the sharded engine uses when the spec
// leaves Epoch zero. Results are invariant under the epoch length (pinned by
// TestShardEpochInvariance); 10ms balances barrier overhead against mailbox
// buffering for the default workloads.
const defaultEpoch = 10 * time.Millisecond

// shardedRun carries a scenario's sharded-mode machinery: the lockstep
// engine, the home lane (whose Engine is Scenario.engine — store, cluster,
// monitor, control loop, faults, sampler and tenant runtimes all live
// there), and one source lane per workload driver. The drivers are the only
// part of the scenario whose event stream is provably independent of the
// rest of the system — each consumes exclusively its own named random
// streams (the property trace record/replay is built on) — so they are the
// part that runs ahead on other cores, with every generated arrival mailed
// back to the home lane and fired at its exact virtual time.
type shardedRun struct {
	se   *sim.ShardedEngine
	home *sim.Lane
	// driverLanes holds one source lane per workload driver, aligned with
	// Scenario.drivers (addDriver creates both); splice bridges each pair at
	// Run.
	driverLanes []*sim.Lane
	// bridges holds the lane bridges splice created, in driver order. Run
	// seeds each one right after the driver Starts so the home engine claims
	// the first-arrival sequence numbers at their single-engine positions.
	bridges []*laneBridge
}

func newShardedRun(spec ScenarioSpec) (*shardedRun, error) {
	epoch := spec.Epoch
	if epoch <= 0 {
		epoch = defaultEpoch
	}
	se, err := sim.NewShardedEngine(epoch, spec.Shards)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling sharded engine: %w", err)
	}
	home, err := se.NewLane(0)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling sharded engine: %w", err)
	}
	return &shardedRun{se: se, home: home}, nil
}

// driverEngine returns the engine the next workload driver schedules on: the
// shared engine in plain mode, a fresh source lane running one epoch ahead
// of the home lane in sharded mode.
func (s *Scenario) driverEngine() (*sim.Engine, error) {
	if s.sharded == nil {
		return s.engine, nil
	}
	lane, err := s.sharded.se.NewLane(1)
	if err != nil {
		return nil, fmt.Errorf("autonosql: assembling sharded engine: %w", err)
	}
	s.sharded.driverLanes = append(s.sharded.driverLanes, lane)
	return lane.Engine(), nil
}

// splice wraps every workload driver's target with a laneBridge pairing it
// with its source lane. It runs at the top of Run — after any RecordTrace
// wrap, so the recorder stays on the home side of the bridge and stamps
// arrivals at their true (home-lane) delivery times. Generators additionally
// get their idle ticks mirrored, so even zero-rate profile re-evaluations
// keep the home engine's allocation order aligned with a single-engine run.
func (sr *shardedRun) splice(s *Scenario) {
	for i, d := range s.drivers {
		var b *laneBridge
		d.Intercept(func(inner workload.IDTarget) workload.IDTarget {
			b = newLaneBridge(sr.driverLanes[i], sr.home, inner)
			return b
		})
		if g, ok := d.source.(*workload.Generator); ok {
			g.OnIdleTick(b.mirrorIdleTick)
		}
		sr.bridges = append(sr.bridges, b)
	}
}

// laneBridge forwards one workload driver's arrival chain from its source
// lane to the home lane. The driver runs one epoch ahead in virtual time;
// every tick it fires is recorded and handed off at the next barrier, and
// the home lane replays the chain — issue the operation against the real
// target, then claim the sequence number for the following tick — at the
// exact virtual times and heap positions the chain would occupy if the
// driver ran on the home engine itself. Replaying the positions, not just
// the times, is what keeps same-nanosecond ties (an arrival landing on the
// same instant as an ack or a rebalance step) resolving identically to the
// single-heap run: at equal virtual time the plain engine fires the arrival
// before events allocated after the previous tick and after events
// allocated before it, and the reserved sequence numbers reproduce that
// order bit-for-bit.
type laneBridge struct {
	lane   *sim.Lane
	home   *sim.Lane
	target workload.IDTarget

	// free recycles fired tick records. It is popped only by the driver's
	// lane mid-round and refilled only at barriers, while that lane is
	// parked.
	free []*tickRec

	// Home-side chain state, touched only by barrier handoffs and home-lane
	// delivery, which the lockstep protocol orders strictly.
	nextSeq uint64     // reserved seq for the next tick; 0 = already consumed
	queue   []*tickRec // handed-off ticks whose predecessor has not fired yet
	head    int
	done    []*tickRec // fired records awaiting recycling at the next handoff
}

// tickRec is one fired driver tick in flight between lanes: an operation
// (op true) or an idle profile re-evaluation (op false). Both kinds allocate
// the driver's next arrival event, so both must be replayed in the home
// engine's sequence stream.
type tickRec struct {
	bridge *laneBridge
	at     time.Duration
	key    store.KeyID
	cb     func(store.Result)
	write  bool
	op     bool
}

func newLaneBridge(lane, home *sim.Lane, target workload.IDTarget) *laneBridge {
	return &laneBridge{lane: lane, home: home, target: target}
}

// seed claims the sequence number for the driver's first tick. Run calls it
// right after the driver Starts, mirroring the first-arrival allocation a
// single-engine Start performs at the same point.
func (b *laneBridge) seed() { b.nextSeq = b.home.Engine().ReserveSeq() }

func (b *laneBridge) ReadID(key store.KeyID, cb func(store.Result))  { b.send(key, cb, false) }
func (b *laneBridge) WriteID(key store.KeyID, cb func(store.Result)) { b.send(key, cb, true) }

func (b *laneBridge) send(key store.KeyID, cb func(store.Result), write bool) {
	rec := b.newRec()
	rec.at = b.lane.Engine().Now()
	rec.key = key
	rec.cb = cb
	rec.write = write
	rec.op = true
	b.lane.Handoff(b.home, rec.at, handoffTick, rec)
}

// mirrorIdleTick records a generator tick that issued nothing. The tick
// still allocated the driver's next arrival, so the home lane must claim a
// matching sequence number at the matching point.
func (b *laneBridge) mirrorIdleTick() {
	rec := b.newRec()
	rec.at = b.lane.Engine().Now()
	b.lane.Handoff(b.home, rec.at, handoffTick, rec)
}

func (b *laneBridge) newRec() *tickRec {
	if n := len(b.free) - 1; n >= 0 {
		rec := b.free[n]
		b.free = b.free[:n]
		return rec
	}
	return &tickRec{bridge: b}
}

func (b *laneBridge) popQueue() *tickRec {
	if b.head == len(b.queue) {
		return nil
	}
	rec := b.queue[b.head]
	b.queue[b.head] = nil
	b.head++
	if b.head == len(b.queue) {
		b.queue = b.queue[:0]
		b.head = 0
	}
	return rec
}

// handoffTick runs at a barrier drain, with both lanes parked. If the
// previous tick has already fired its reservation is waiting in nextSeq and
// the tick can be scheduled now; otherwise it queues until the predecessor
// claims a sequence number for it in deliverTick.
func handoffTick(arg any, _ time.Duration) {
	rec := arg.(*tickRec)
	b := rec.bridge
	if len(b.done) > 0 {
		// Recycle fired records back to the source side while it is parked.
		b.free = append(b.free, b.done...)
		for i := range b.done {
			b.done[i] = nil
		}
		b.done = b.done[:0]
	}
	if b.nextSeq != 0 {
		b.home.Engine().ScheduleReserved(rec.at, b.nextSeq, deliverTick, rec)
		b.nextSeq = 0
	} else {
		b.queue = append(b.queue, rec)
	}
}

// deliverTick fires on the home lane at the tick's virtual time: issue the
// operation (if any) against the real target, then claim the sequence number
// for the driver's next tick — the same issue-then-schedule order the driver
// itself runs, so every allocation lands at its single-engine position.
func deliverTick(arg any, _ time.Duration) {
	rec := arg.(*tickRec)
	b := rec.bridge
	if rec.op {
		if rec.write {
			b.target.WriteID(rec.key, rec.cb)
		} else {
			b.target.ReadID(rec.key, rec.cb)
		}
	}
	seq := b.home.Engine().ReserveSeq()
	if next := b.popQueue(); next != nil {
		b.home.Engine().ScheduleReserved(next.at, seq, deliverTick, next)
	} else {
		b.nextSeq = seq
	}
	rec.cb = nil
	rec.write = false
	rec.op = false
	b.done = append(b.done, rec)
}
