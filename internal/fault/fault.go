package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
)

// Kind identifies a class of injected fault.
type Kind uint8

// Fault kinds.
const (
	// KindCrash fails one or more nodes; they recover after the event's
	// duration (or stay down for the rest of the run when it is zero).
	KindCrash Kind = iota + 1
	// KindSlow degrades the capacity of one or more nodes by the event's
	// severity fraction — the straggler/degraded-disk condition.
	KindSlow
	// KindPartition isolates a group of nodes from the rest of the cluster;
	// the partition heals after the event's duration.
	KindPartition
	// KindStorm raises network congestion by the event's severity for the
	// event's duration — a latency storm.
	KindStorm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindSlow:
		return "slow"
	case KindPartition:
		return "partition"
	case KindStorm:
		return "storm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one planned fault: what happens, when it starts, how long it
// lasts, how many nodes it touches and how severe it is.
type Event struct {
	Kind Kind
	// At is the virtual time the fault strikes.
	At time.Duration
	// Duration is how long the fault lasts before the injector undoes it
	// (restart, speed recovery, heal, storm end). Zero means the fault holds
	// for the remainder of the run.
	Duration time.Duration
	// Nodes is how many nodes the fault touches (crash, slow, partition
	// minority size). Zero defaults to one.
	Nodes int
	// Severity is the fault intensity in [0, 1]: capacity fraction lost for
	// slow nodes, congestion level for storms. Crash and partition ignore it.
	Severity float64
}

// Plan is an ordered set of fault events injected over one run.
type Plan struct {
	Events []Event
}

// Window records one fault as actually injected: the planned interval, the
// concrete nodes chosen at strike time and the severity applied.
type Window struct {
	Kind  Kind
	Start time.Duration
	// End is the planned end of the fault; for zero-duration (permanent)
	// events it is the run duration.
	End time.Duration
	// Nodes are the node IDs the fault touched (empty for storms).
	Nodes    []cluster.NodeID
	Severity float64
}

// String renders the window compactly, e.g. "crash[node-2] 30s..90s".
func (w Window) String() string {
	s := fmt.Sprintf("%s%v %v..%v", w.Kind, w.Nodes, w.Start, w.End)
	if w.Severity > 0 {
		s += fmt.Sprintf(" sev=%.2f", w.Severity)
	}
	return s
}

// Injector schedules a Plan's events on the simulation engine and records
// the timeline of what was actually injected.
type Injector struct {
	engine      *sim.Engine
	cluster     *cluster.Cluster
	rng         *rand.Rand
	runDuration time.Duration

	timeline []Window
	// stormLevel is the sum of the severities of currently active latency
	// storms; tracking it here lets overlapping storms compose additively
	// instead of the end of one resetting the others.
	stormLevel float64
	// slowLoad is the per-node sum of active slow-fault severities, for the
	// same reason.
	slowLoad map[cluster.NodeID]float64
	// crashHold counts, per node, the crash faults currently holding it
	// down, so the undo of an earlier crash never revives a node a later,
	// still-active crash fault owns.
	crashHold map[cluster.NodeID]int
}

// NewInjector creates an injector bound to a cluster and engine. rng must be
// a dedicated stream (conventionally "fault") so injection choices never
// perturb the other random streams of the scenario.
func NewInjector(engine *sim.Engine, cl *cluster.Cluster, rng *rand.Rand, runDuration time.Duration) (*Injector, error) {
	if engine == nil || cl == nil || rng == nil {
		return nil, errors.New("fault: engine, cluster and rand stream are required")
	}
	if runDuration <= 0 {
		return nil, errors.New("fault: run duration must be positive")
	}
	return &Injector{engine: engine, cluster: cl, rng: rng, runDuration: runDuration}, nil
}

// Schedule registers every event of the plan on the engine. Events whose
// strike time lies beyond the run duration are scheduled anyway and simply
// never fire. Schedule may be called once per plan before the engine runs.
func (in *Injector) Schedule(plan Plan) error {
	for i, ev := range plan.Events {
		ev := ev
		if now := in.engine.Now(); ev.At < now {
			return fmt.Errorf("fault: event %d strikes at %v, before the engine's clock %v", i, ev.At, now)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("fault: event %d has negative duration %v", i, ev.Duration)
		}
		in.engine.AfterAt(ev.At, func(now time.Duration) { in.strike(ev, now) })
	}
	return nil
}

// Timeline returns the windows of every fault injected so far, in strike
// order.
func (in *Injector) Timeline() []Window {
	out := make([]Window, len(in.timeline))
	copy(out, in.timeline)
	return out
}

// strike fires one fault event at its planned time.
func (in *Injector) strike(ev Event, now time.Duration) {
	// A fault whose planned end lies at or beyond the run end (including a
	// now+Duration overflow for absurd-but-valid durations) simply holds for
	// the rest of the run: no undo is scheduled, same as Duration == 0.
	end := in.runDuration
	undo := false
	if ev.Duration > 0 {
		if e := now + ev.Duration; e > now && e < in.runDuration {
			end = e
			undo = true
		}
	}
	w := Window{Kind: ev.Kind, Start: now, End: end, Severity: ev.Severity}

	switch ev.Kind {
	case KindCrash:
		targets := in.pickNodes(ev.nodeCount())
		if len(targets) == 0 {
			// No eligible victim (a lone surviving node is never touched):
			// the fault did not strike, so it does not enter the timeline.
			return
		}
		w.Nodes = targets
		w.Severity = 0
		in.failNodes(targets)
		if undo {
			in.engine.AfterAt(end, func(time.Duration) {
				in.recoverNodes(targets)
			})
		}

	case KindSlow:
		targets := in.pickNodes(ev.nodeCount())
		if len(targets) == 0 {
			return
		}
		w.Nodes = targets
		in.addSlowLoad(targets, ev.Severity)
		if undo {
			in.engine.AfterAt(end, func(time.Duration) {
				in.addSlowLoad(targets, -ev.Severity)
			})
		}

	case KindPartition:
		targets := in.pickNodes(ev.nodeCount())
		if len(targets) == 0 {
			return
		}
		w.Nodes = targets
		w.Severity = 0
		net := in.cluster.Network()
		net.Isolate(targets)
		if undo {
			in.engine.AfterAt(end, func(time.Duration) {
				net.Heal(targets)
			})
		}

	case KindStorm:
		in.addStorm(ev.Severity)
		if undo {
			in.engine.AfterAt(end, func(time.Duration) {
				in.addStorm(-ev.Severity)
			})
		}

	default:
		return
	}
	in.timeline = append(in.timeline, w)
}

// failNodes crashes the targets, counting how many crash faults hold each
// one down. A node may have been decommissioned since selection began; a
// vanished target is simply a no-op crash.
func (in *Injector) failNodes(ids []cluster.NodeID) {
	if in.crashHold == nil {
		in.crashHold = make(map[cluster.NodeID]int)
	}
	for _, id := range ids {
		in.crashHold[id]++
		_ = in.cluster.FailNode(id)
	}
}

// recoverNodes releases one crash hold per target and restarts nodes whose
// last hold drained. A node still held by a later, overlapping crash fault
// stays down; recovery of a node that is up (repaired mid-fault by an
// intervention) or removed is a no-op.
func (in *Injector) recoverNodes(ids []cluster.NodeID) {
	for _, id := range ids {
		if c := in.crashHold[id]; c > 1 {
			in.crashHold[id] = c - 1
			continue
		}
		delete(in.crashHold, id)
		_ = in.cluster.RecoverNode(id)
	}
}

// addStorm adjusts the summed severity of active storms and pushes the new
// level (clamped by the network) so overlapping storms compose instead of
// clobbering each other.
func (in *Injector) addStorm(delta float64) {
	in.stormLevel += delta
	if in.stormLevel < 0 {
		in.stormLevel = 0
	}
	in.cluster.Network().SetFaultCongestion(in.stormLevel)
}

// addSlowLoad adjusts each target's summed slow-fault severity, so two slow
// faults overlapping on one node degrade it by their sum and the end of one
// leaves the other in force.
func (in *Injector) addSlowLoad(ids []cluster.NodeID, delta float64) {
	if in.slowLoad == nil {
		in.slowLoad = make(map[cluster.NodeID]float64)
	}
	for _, id := range ids {
		load := in.slowLoad[id] + delta
		if load <= 0 {
			load = 0
			delete(in.slowLoad, id)
		} else {
			in.slowLoad[id] = load
		}
		if node, ok := in.cluster.Node(id); ok {
			node.SetFaultLoad(load)
		}
	}
}

func (ev Event) nodeCount() int {
	if ev.Nodes <= 0 {
		return 1
	}
	return ev.Nodes
}

// pickNodes chooses n distinct victims uniformly at random from the
// injector's dedicated stream. Eligible victims are the *connected* serving
// nodes — up or draining AND not already behind a partition — so composed
// fault plans cannot isolate or kill every reachable node: whatever the
// plan, at least one connected serving node survives every selection.
// AvailableNodes is ordered by ID, so the choice depends only on the stream
// state and the (deterministic) cluster state — never on map iteration
// order.
func (in *Injector) pickNodes(n int) []cluster.NodeID {
	avail := in.cluster.AvailableNodes()
	if net := in.cluster.Network(); net.PartitionActive() {
		connected := make([]*cluster.Node, 0, len(avail))
		for _, node := range avail {
			if !net.Isolated(node.ID()) {
				connected = append(connected, node)
			}
		}
		avail = connected
	}
	if len(avail) <= 1 {
		// Never touch the last connected surviving node.
		return nil
	}
	if limit := len(avail) - 1; n > limit {
		n = limit
	}
	// Partial Fisher–Yates over the index space.
	idx := make([]int, len(avail))
	for i := range idx {
		idx[i] = i
	}
	out := make([]cluster.NodeID, 0, n)
	for i := 0; i < n; i++ {
		j := i + in.rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, avail[idx[i]].ID())
	}
	return out
}
