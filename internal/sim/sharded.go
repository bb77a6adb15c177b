package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ShardedEngine drives N independent per-lane event heaps in lockstep
// epochs: each round, every lane runs its own Engine up to its window end
// (the barrier front plus lead×epoch), concurrently across a bounded worker
// pool, and then the round's barrier joins them.
//
// It exists only because the benchmark's lockstep probe (bench/) still times
// an empty multi-lane round and reads Profile().Rounds; scenarios never use
// it. It is deleted together with those benchmark counters.
type ShardedEngine struct {
	epoch   time.Duration
	workers int

	lanes []*Lane
	round uint64
	front time.Duration
	ran   bool
}

// Lane is one shard of a ShardedEngine: a plain Engine plus its lead, the
// number of epochs it runs ahead of the barrier front.
type Lane struct {
	eng    *Engine
	lead   int
	target time.Duration
}

// Engine returns the lane's event engine.
func (l *Lane) Engine() *Engine { return l.eng }

// ShardedProfile is the sharded engine's self-profiling snapshot.
type ShardedProfile struct {
	// Rounds is the number of lockstep rounds run (including bootstrap).
	Rounds uint64 `json:"rounds"`
}

// Profile returns the sharded engine's counters. Call it after Run.
func (se *ShardedEngine) Profile() ShardedProfile {
	return ShardedProfile{Rounds: se.round}
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

// NewLane adds a lane running lead epochs ahead of the barrier front. Lanes
// must all be added before Run.
func (se *ShardedEngine) NewLane(lead int) (*Lane, error) {
	if se.ran {
		return nil, errors.New("sim: cannot add a lane after Run")
	}
	if lead < 0 {
		return nil, fmt.Errorf("sim: lane lead must be non-negative, got %d", lead)
	}
	l := &Lane{eng: NewEngine(), lead: lead}
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

	workers := min(se.workers, len(se.lanes))
	var pool *lanePool
	if workers > 1 {
		pool = newLanePool(se.lanes, workers)
		defer pool.stop()
	}

	// Bootstrap step: lanes with lead > 0 pull ahead of the front.
	if err := se.step(pool, se.front, until); err != nil {
		return err
	}
	for se.front < until {
		t := min(se.front-se.front%se.epoch+se.epoch, until)
		if err := se.step(pool, t, until); err != nil {
			return err
		}
		se.front = t
	}
	return nil
}

// step runs one lockstep round: every lane advances to front + lead×epoch,
// capped at until.
func (se *ShardedEngine) step(pool *lanePool, front, until time.Duration) error {
	se.round++
	for _, l := range se.lanes {
		l.target = max(min(front+time.Duration(l.lead)*se.epoch, until), l.eng.now)
	}
	if pool != nil {
		return pool.step()
	}
	for _, l := range se.lanes {
		if err := l.eng.Run(l.target); err != nil {
			return err
		}
	}
	return nil
}

// lanePool is the persistent worker pool one Run spans: W goroutines, each
// owning a fixed subset of lanes, woken once per round through per-worker
// channels. Waking and joining a round allocates nothing.
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
			if err := l.eng.Run(l.target); err != nil {
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
