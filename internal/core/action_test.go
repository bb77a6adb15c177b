package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"autonosql/internal/cluster"
	"autonosql/internal/sim"
	"autonosql/internal/store"
)

func TestConsistencyLadder(t *testing.T) {
	steps := []struct {
		from, want store.ConsistencyLevel
	}{
		{store.One, store.Two},
		{store.Two, store.Quorum},
		{store.Quorum, store.All},
	}
	for _, s := range steps {
		got, err := TightenConsistency(s.from)
		if err != nil || got != s.want {
			t.Errorf("Tighten(%v) = %v, %v; want %v", s.from, got, err, s.want)
		}
		back, err := RelaxConsistency(s.want)
		if err != nil || back != s.from {
			t.Errorf("Relax(%v) = %v, %v; want %v", s.want, back, err, s.from)
		}
	}
}

func TestConsistencyLadderBounds(t *testing.T) {
	if _, err := TightenConsistency(store.All); !errors.Is(err, ErrConsistencyBound) {
		t.Errorf("tightening ALL should hit the bound, got %v", err)
	}
	if _, err := RelaxConsistency(store.One); !errors.Is(err, ErrConsistencyBound) {
		t.Errorf("relaxing ONE should hit the bound, got %v", err)
	}
	if _, err := TightenConsistency(store.ConsistencyLevel(42)); err == nil {
		t.Error("unknown level should be rejected")
	}
	if _, err := RelaxConsistency(store.ConsistencyLevel(42)); err == nil {
		t.Error("unknown level should be rejected")
	}
}

func TestActionStringsAndNoop(t *testing.T) {
	for _, k := range ActionKinds() {
		if strings.HasPrefix(k.String(), "action(") {
			t.Errorf("action kind %d has no symbolic name", int(k))
		}
		if (Action{Kind: k}).IsNoop() {
			t.Errorf("%v should not be a no-op", k)
		}
	}
	if !(Action{Kind: ActionNone}).IsNoop() || !(Action{}).IsNoop() {
		t.Error("ActionNone and the zero Action must be no-ops")
	}
	a := Action{Kind: ActionAddNode, Reason: "forecast"}
	if got := a.String(); !strings.Contains(got, "add-node") || !strings.Contains(got, "forecast") {
		t.Errorf("Action.String() = %q", got)
	}
	if got := (Action{}).String(); got != "none" {
		t.Errorf("zero action String() = %q, want none", got)
	}
}

func TestSystemActuatorRequiresDependencies(t *testing.T) {
	if _, err := NewSystemActuator(nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestSystemActuatorReadsAndWritesConfig(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(7)
	cl := cluster.New(cluster.DefaultConfig(), engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	act, err := NewSystemActuator(st, cl)
	if err != nil {
		t.Fatalf("NewSystemActuator: %v", err)
	}

	if act.ClusterSize() != 3 || act.ReplicationFactor() != 3 {
		t.Fatalf("unexpected initial plant state: size=%d rf=%d", act.ClusterSize(), act.ReplicationFactor())
	}
	if act.ReadConsistency() != store.One || act.WriteConsistency() != store.One {
		t.Fatal("unexpected initial consistency levels")
	}

	if err := act.SetWriteConsistency(store.Quorum); err != nil {
		t.Fatalf("SetWriteConsistency: %v", err)
	}
	if st.WriteConsistency() != store.Quorum {
		t.Fatal("write consistency not propagated to store")
	}
	if err := act.SetReadConsistency(store.Two); err != nil {
		t.Fatalf("SetReadConsistency: %v", err)
	}
	if st.ReadConsistency() != store.Two {
		t.Fatal("read consistency not propagated to store")
	}
	if err := act.SetWriteConsistency(store.ConsistencyLevel(99)); err == nil {
		t.Fatal("invalid write consistency accepted")
	}
	if err := act.SetReadConsistency(store.ConsistencyLevel(0)); err == nil {
		t.Fatal("invalid read consistency accepted")
	}
}

func TestSystemActuatorAddAndRemoveNode(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(11)
	ccfg := cluster.DefaultConfig()
	cl := cluster.New(ccfg, engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	act, err := NewSystemActuator(st, cl)
	if err != nil {
		t.Fatalf("NewSystemActuator: %v", err)
	}

	if err := act.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	// The new node only becomes available after the bootstrap time.
	if err := engine.Run(ccfg.BootstrapTime + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := act.ClusterSize(); got != 4 {
		t.Fatalf("cluster size after add = %d, want 4", got)
	}

	if err := act.RemoveNode(); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if err := engine.Run(engine.Now() + ccfg.DecommissionTime + time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := act.ClusterSize(); got != 3 {
		t.Fatalf("cluster size after remove = %d, want 3", got)
	}
}

func TestSystemActuatorRemoveNodeNoCandidate(t *testing.T) {
	engine := sim.NewEngine()
	src := sim.NewRandSource(3)
	ccfg := cluster.DefaultConfig()
	ccfg.InitialNodes = 1
	ccfg.MinNodes = 1
	cl := cluster.New(ccfg, engine, src)
	st, err := store.New(store.DefaultConfig(), engine, cl, src)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	act, err := NewSystemActuator(st, cl)
	if err != nil {
		t.Fatalf("NewSystemActuator: %v", err)
	}
	// Only one node and MinNodes=1: the cluster refuses removal.
	if err := act.RemoveNode(); err == nil {
		t.Fatal("removing the last node should fail")
	}
}
