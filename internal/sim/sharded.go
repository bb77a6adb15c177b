package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeterminism is returned by ShardedEngine.Run when a cross-lane message
// would fire in its receiver's past. It indicates a mis-structured lane
// topology (the sender's lead does not exceed the receiver's), never
// scheduling luck: whether it trips is a pure function of the simulated
// computation.
var ErrDeterminism = errors.New("sim: cross-lane message would fire in the receiver's past")

// laneSeqShift positions the lane id in the high bits of every event sequence
// number. Each lane's engine starts its seq counter at id<<laneSeqShift, so
// the (at, seq) total order every heap already pops in becomes a global
// (at, lane, per-lane seq) order: when a drained message ties on virtual time
// with a receiver-local event, the tie is broken by lane id and then by the
// sender's own scheduling order — a pure function of the computation,
// independent of epoch length, worker count and goroutine scheduling. Lane 0
// keeps base 0, so a single-lane engine is bit-for-bit the plain Engine.
const laneSeqShift = 48

// maxLanes bounds the lane count so lane ids cannot collide in the seq high
// bits and per-lane counters keep 2^48 sequence numbers of headroom.
const maxLanes = 1 << (64 - laneSeqShift)

// mailMsg is one cross-lane message waiting in a mailbox: the virtual time
// it belongs to, the sequence number its sender claimed for it (Send/SendAt
// only), and the ArgHandler payload. A handoff message is not an event — the
// drain invokes its handler at the barrier instead of pushing it into the
// receiver's heap.
type mailMsg struct {
	at      time.Duration
	seq     uint64
	h       ArgHandler
	arg     any
	handoff bool
}

// BarrierTask is auxiliary work a lane runs at the start of each of its
// windows, before any of its events fire. Tasks are how the coordinator
// off-loads order-independent computation (noise-feed refills, pre-sorts) to
// lanes whose windows would otherwise under-fill their worker. RunBarrierTask
// reports whether the task did work this window; tasks must synchronise any
// state they share with other goroutines themselves (see NoiseFeed for the
// claim/publish pattern).
type BarrierTask interface {
	RunBarrierTask() bool
}

// Lane is one shard of a ShardedEngine: a plain Engine plus its position in
// the lockstep schedule. Lanes with lead 0 run at the barrier front; a lane
// with lead N runs N epochs ahead of the front, so everything it mails to a
// lower-lead lane is in the receiver's mailbox before the receiver's clock
// gets there. Only handlers running on the lane's own engine may call Send.
type Lane struct {
	se     *ShardedEngine
	eng    *Engine
	id     int
	lead   int
	target time.Duration
	// tasks run at the start of every window of this lane. Appended only
	// while the lanes are parked (before Run or from an OnBarrier hook).
	tasks []BarrierTask
	// tasksRun counts tasks that reported doing work. Scheduling-dependent
	// (a consumer may steal a task's work first); excluded from deterministic
	// report surfaces.
	tasksRun uint64
	// sent counts cross-lane messages this lane mailed (Send/SendAt/Handoff).
	sent uint64
	// busy accumulates the wall-clock time the lane's worker spent running
	// this lane's windows. Written only by the lane's worker between
	// barriers, read by the coordinator after the join — no races.
	busy time.Duration
}

// AddBarrierTask registers t to run at the start of every window of this
// lane. It must be called while the lanes are parked: before Run, or on the
// coordinating goroutine from an OnBarrier hook.
func (l *Lane) AddBarrierTask(t BarrierTask) { l.tasks = append(l.tasks, t) }

// runBarrierTasks runs the lane's tasks at a window start, on the lane's
// worker goroutine.
func (l *Lane) runBarrierTasks() {
	for _, t := range l.tasks {
		if t.RunBarrierTask() {
			l.tasksRun++
		}
	}
}

// Engine returns the lane's event engine. All scheduling inside the lane
// (After, AfterArg, tickers) goes through it exactly as in single-engine
// mode.
func (l *Lane) Engine() *Engine { return l.eng }

// ID returns the lane's index, which is also its tie-breaking rank: at equal
// virtual time, events of a lower lane fire first.
func (l *Lane) ID() int { return l.id }

// Round returns the current lockstep round, incremented before every
// parallel step (including the bootstrap step). Senders that hand out
// pointers into reusable buffers key double-buffering off its parity: a
// message produced in round r has fired by the end of round r+1, so its
// buffer can be reclaimed in round r+2.
func (l *Lane) Round() uint64 { return l.se.round }

// Send mails h(arg) to fire on dst at the sender's current virtual time. The
// message is enqueued at the next barrier with a sequence number claimed from
// the sending lane's own counter, so delivery order is (at, lane, send
// order) regardless of epoch length or worker count. It must be called from
// a handler running on l's engine during ShardedEngine.Run.
func (l *Lane) Send(dst *Lane, h ArgHandler, arg any) {
	l.SendAt(dst, l.eng.now, h, arg)
}

// SendAt is Send with an absolute virtual timestamp at >= the sender's now.
// The receiver's clock must not have passed at by the time the message is
// drained (guaranteed when the sender's lead exceeds the receiver's);
// otherwise Run fails with ErrDeterminism.
func (l *Lane) SendAt(dst *Lane, at time.Duration, h ArgHandler, arg any) {
	if h == nil {
		panic(errors.New("sim: nil handler"))
	}
	if at < l.eng.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, l.eng.now))
	}
	l.eng.seq++
	l.sent++
	box := &l.se.mail[l.id*len(l.se.lanes)+dst.id]
	*box = append(*box, mailMsg{at: at, seq: l.eng.seq, h: h, arg: arg})
}

// Handoff mails h(arg) to run on the coordinating goroutine at the next
// barrier drain instead of at a virtual time. Both the sender and the
// receiver are parked when the handler runs, so it may freely inspect
// receiver-side state and schedule into the receiver's heap — typically via
// ReserveSeq/ScheduleReserved chains that reproduce the exact sequence
// positions the receiver's own handlers would have allocated. at records the
// sender's virtual time for the message and is subject to the same
// must-not-be-in-the-receiver's-past check as Send.
func (l *Lane) Handoff(dst *Lane, at time.Duration, h ArgHandler, arg any) {
	if h == nil {
		panic(errors.New("sim: nil handler"))
	}
	if at < l.eng.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, l.eng.now))
	}
	l.sent++
	box := &l.se.mail[l.id*len(l.se.lanes)+dst.id]
	*box = append(*box, mailMsg{at: at, h: h, arg: arg, handoff: true})
}

// ReserveSeq claims the next sequence number from the engine's counter
// without scheduling an event. Paired with ScheduleReserved it splits an
// allocation from its heap insertion: the event fires in exactly the
// (at, seq) position an event scheduled at the reservation point would
// occupy, no matter how much later it is actually pushed. The sharded
// scenario bridge uses this to replay a workload driver's chained arrival
// allocations on the home lane bit-for-bit.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved schedules h(arg) at absolute virtual time at under a
// sequence number previously claimed with ReserveSeq. at must not precede
// the engine's clock.
func (e *Engine) ScheduleReserved(at time.Duration, seq uint64, h ArgHandler, arg any) {
	if h == nil {
		panic(errors.New("sim: nil handler"))
	}
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	e.pushMail(at, seq, h, arg)
}

// pushMail enqueues a drained cross-lane message as a pooled event carrying
// its sender-assigned sequence number. The caller (the barrier drain) has
// already checked at >= e.now.
func (e *Engine) pushMail(at time.Duration, seq uint64, h ArgHandler, arg any) {
	ev := e.pooledEvent()
	ev.at = at
	ev.seq = seq
	ev.argHandler = h
	ev.arg = arg
	ev.pooled = true
	e.queue.push(ev)
	e.notePush()
}

// ShardedEngine drives N per-lane event heaps in deterministic lockstep
// epochs. Each round, every lane runs its own Engine up to its window end
// (the barrier front plus lead×epoch) — concurrently across a bounded worker
// pool — then all cross-lane messages are drained, in (receiver, sender,
// send order) order, into the receivers' heaps. Because drained events carry
// sender-assigned (lane, seq) keys and every heap pops in (at, seq) order,
// the global firing order is a pure function of (virtual time, lane id,
// per-lane sequence): bit-for-bit identical whatever the worker count, the
// epoch length, or how the OS schedules the workers.
//
// Construct with NewShardedEngine, add lanes with NewLane, then call Run
// once.
type ShardedEngine struct {
	epoch   time.Duration
	workers int

	lanes []*Lane
	// mail is the flattened [sender][receiver] mailbox matrix, built when Run
	// seals the lane set. Boxes are truncated (capacity retained) at every
	// drain, so a steady-state run stops allocating once each pair's
	// high-water mark is reached.
	mail []([]mailMsg)

	// hooks run on the coordinating goroutine after every barrier drain,
	// while all lanes are parked.
	hooks []func()

	round uint64
	front time.Duration
	ran   bool
	// halted stops Run at the next barrier. It is set from a handler firing
	// on one of the lanes — a lane-worker goroutine running concurrently with
	// the coordinator — hence the atomic.
	halted atomic.Bool

	// Self-profiling: drained counts mailbox messages moved at barriers
	// (deterministic); stepWall and drainWall accumulate the coordinator's
	// wall-clock time inside the parallel lane phase and the barrier drain
	// (wall-clock, so reported only through performance tooling, never in
	// determinism-sensitive outputs).
	drained   uint64
	stepWall  time.Duration
	drainWall time.Duration
}

// LaneProfile is one lane's self-profiling snapshot. All fields except Busy
// are pure functions of the simulated computation.
type LaneProfile struct {
	Lane int `json:"lane"`
	Lead int `json:"lead"`
	// Engine counters of the lane's own event heap.
	Profile
	// MailSent counts cross-lane messages this lane mailed.
	MailSent uint64 `json:"mail_sent"`
	// TasksRun counts barrier tasks that did work on this lane. Like Busy it
	// is scheduling-dependent (a starved consumer may steal a task's work),
	// so it is excluded from deterministic report surfaces.
	TasksRun uint64 `json:"-"`
	// Busy is the wall-clock time the lane's worker spent executing this
	// lane. Not deterministic; excluded from report surfaces.
	Busy time.Duration `json:"-"`
}

// ShardedProfile is the sharded engine's self-profiling snapshot.
type ShardedProfile struct {
	// Rounds is the number of lockstep rounds run (including bootstrap).
	Rounds uint64 `json:"rounds"`
	// MailDrained counts cross-lane messages moved at barriers.
	MailDrained uint64 `json:"mail_drained"`
	// Lanes holds one entry per lane, in lane order.
	Lanes []LaneProfile `json:"lanes"`
	// StepWall and DrainWall are the coordinator's cumulative wall-clock
	// time spent in the parallel lane phase and the barrier drains. With
	// Lanes[i].Busy they give per-lane occupancy (Busy/StepWall) and
	// barrier-stall time (StepWall-Busy). Not deterministic; excluded from
	// report surfaces.
	StepWall  time.Duration `json:"-"`
	DrainWall time.Duration `json:"-"`
}

// Profile returns the sharded engine's self-profiling counters. Call it
// after Run; it reads lane state the workers wrote before the final barrier.
func (se *ShardedEngine) Profile() ShardedProfile {
	p := ShardedProfile{
		Rounds:      se.round,
		MailDrained: se.drained,
		StepWall:    se.stepWall,
		DrainWall:   se.drainWall,
		Lanes:       make([]LaneProfile, len(se.lanes)),
	}
	for i, l := range se.lanes {
		p.Lanes[i] = LaneProfile{
			Lane:     l.id,
			Lead:     l.lead,
			Profile:  l.eng.Profile(),
			MailSent: l.sent,
			TasksRun: l.tasksRun,
			Busy:     l.busy,
		}
	}
	return p
}

// NewShardedEngine creates a sharded engine with the given lockstep epoch
// and worker bound. workers is clamped to [1, number of lanes] at Run; a
// single worker runs every lane inline on the calling goroutine.
func NewShardedEngine(epoch time.Duration, workers int) (*ShardedEngine, error) {
	if epoch <= 0 {
		return nil, fmt.Errorf("sim: epoch must be positive, got %v", epoch)
	}
	if workers < 1 {
		workers = 1
	}
	return &ShardedEngine{epoch: epoch, workers: workers}, nil
}

// Epoch returns the lockstep window length.
func (se *ShardedEngine) Epoch() time.Duration { return se.epoch }

// Lanes returns the number of lanes added so far.
func (se *ShardedEngine) Lanes() int { return len(se.lanes) }

// NewLane adds a lane running lead epochs ahead of the barrier front. Lanes
// must all be added before Run; their creation order fixes their tie-breaking
// rank. A lane that receives messages must have a smaller lead than every
// lane that sends to it (producers run ahead of consumers), which Run
// enforces per message via ErrDeterminism.
func (se *ShardedEngine) NewLane(lead int) (*Lane, error) {
	if se.ran {
		return nil, errors.New("sim: cannot add a lane after Run")
	}
	if lead < 0 {
		return nil, fmt.Errorf("sim: lane lead must be non-negative, got %d", lead)
	}
	if len(se.lanes) >= maxLanes {
		return nil, fmt.Errorf("sim: at most %d lanes", maxLanes)
	}
	eng := NewEngine()
	l := &Lane{se: se, eng: eng, id: len(se.lanes), lead: lead}
	eng.seq = uint64(l.id) << laneSeqShift
	se.lanes = append(se.lanes, l)
	return l, nil
}

// Run drives every lane to virtual time until in lockstep epochs. It can be
// called once per engine; like Engine.Run it advances each lane's clock to
// its window end even when the lane's queue drains early.
func (se *ShardedEngine) Run(until time.Duration) error {
	if se.ran {
		return ErrRunning
	}
	if len(se.lanes) == 0 {
		return errors.New("sim: sharded engine has no lanes")
	}
	if until < 0 {
		return fmt.Errorf("%w: until=%v", ErrPastEvent, until)
	}
	se.ran = true
	se.mail = make([]([]mailMsg), len(se.lanes)*len(se.lanes))

	workers := se.workers
	if workers > len(se.lanes) {
		workers = len(se.lanes)
	}
	var pool *lanePool
	if workers > 1 {
		pool = newLanePool(se.lanes, workers)
		defer pool.stop()
	}

	// Bootstrap step: lanes with lead > 0 pull ahead of the front (lead 0
	// lanes no-op), so every message destined for the first front window is
	// mailed and drained before the front starts moving.
	if err := se.step(pool, se.front, until); err != nil {
		return err
	}
	for se.front < until && !se.halted.Load() {
		t := se.front - se.front%se.epoch + se.epoch
		if t > until {
			t = until
		}
		if err := se.step(pool, t, until); err != nil {
			return err
		}
		se.front = t
	}
	return nil
}

// OnBarrier registers h to run on the coordinating goroutine after every
// barrier drain, while all lanes are parked. Hooks may inspect lane-side
// state and append barrier tasks; the lockstep schedule orders those accesses
// against the lanes' windows. Register before Run.
func (se *ShardedEngine) OnBarrier(h func()) { se.hooks = append(se.hooks, h) }

// Halt stops Run at the next epoch barrier: the current round's lanes finish
// their windows, the mailboxes drain, and Run returns. Call it from a handler
// firing on one of the lanes (pair it with that lane's Engine.Halt to also
// cut the lane's own window short). A halted run is abandoned, not resumable.
func (se *ShardedEngine) Halt() { se.halted.Store(true) }

// step runs one lockstep round: every lane advances to front + lead×epoch
// (capped at until), then the mailboxes are drained at the barrier.
func (se *ShardedEngine) step(pool *lanePool, front, until time.Duration) error {
	se.round++
	for _, l := range se.lanes {
		t := front + time.Duration(l.lead)*se.epoch
		if t > until {
			t = until
		}
		if t < l.eng.now {
			t = l.eng.now
		}
		l.target = t
	}
	stepStart := time.Now()
	if pool == nil {
		for _, l := range se.lanes {
			laneStart := time.Now()
			l.runBarrierTasks()
			err := l.eng.Run(l.target)
			l.busy += time.Since(laneStart)
			if err != nil {
				return err
			}
		}
	} else if err := pool.step(); err != nil {
		return err
	}
	se.stepWall += time.Since(stepStart)
	drainStart := time.Now()
	err := se.drain()
	se.drainWall += time.Since(drainStart)
	if err != nil {
		return err
	}
	for _, h := range se.hooks {
		h()
	}
	return nil
}

// drain moves every mailed message into its receiver's heap. The drain order
// (receiver ascending, sender ascending, send order) is itself irrelevant to
// the firing order — the heap orders by (at, seq) — but every message must
// still be at or ahead of its receiver's clock.
func (se *ShardedEngine) drain() error {
	n := len(se.lanes)
	for di, dst := range se.lanes {
		eng := dst.eng
		for si := 0; si < n; si++ {
			box := &se.mail[si*n+di]
			msgs := *box
			if len(msgs) == 0 {
				continue
			}
			for i := range msgs {
				m := &msgs[i]
				if m.at < eng.now {
					return fmt.Errorf("%w: lane %d -> lane %d at %v, receiver already at %v",
						ErrDeterminism, si, di, m.at, eng.now)
				}
				if m.handoff {
					m.h(m.arg, m.at)
				} else {
					eng.pushMail(m.at, m.seq, m.h, m.arg)
				}
				m.h, m.arg = nil, nil
			}
			se.drained += uint64(len(msgs))
			*box = msgs[:0]
		}
	}
	return nil
}

// lanePool is the persistent worker pool one Run spans: W goroutines, each
// owning a fixed subset of lanes, woken once per round through per-worker
// channels. Waking and joining a round allocates nothing, which keeps the
// sharded steady state as allocation-lean as the plain engine's.
type lanePool struct {
	workers []*laneWorker
	wg      sync.WaitGroup
}

type laneWorker struct {
	pool  *lanePool
	lanes []*Lane
	start chan struct{}
	err   error
}

func newLanePool(lanes []*Lane, n int) *lanePool {
	p := &lanePool{workers: make([]*laneWorker, n)}
	for i := range p.workers {
		p.workers[i] = &laneWorker{pool: p, start: make(chan struct{}, 1)}
	}
	for i, l := range lanes {
		w := p.workers[i%n]
		w.lanes = append(w.lanes, l)
	}
	for _, w := range p.workers {
		go w.loop()
	}
	return p
}

func (w *laneWorker) loop() {
	for range w.start {
		for _, l := range w.lanes {
			laneStart := time.Now()
			l.runBarrierTasks()
			err := l.eng.Run(l.target)
			l.busy += time.Since(laneStart)
			if err != nil {
				w.err = err
				break
			}
		}
		w.pool.wg.Done()
	}
}

// step wakes every worker for one round and waits for all of them.
func (p *lanePool) step() error {
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		w.start <- struct{}{}
	}
	p.wg.Wait()
	for _, w := range p.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

func (p *lanePool) stop() {
	for _, w := range p.workers {
		close(w.start)
	}
}
