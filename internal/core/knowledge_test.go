package core

import (
	"testing"
	"time"
)

func TestKnowledgeCooldowns(t *testing.T) {
	kb := NewKnowledgeBase()
	cluster := ClusterScope()
	if kb.InCooldown(ActionAddNode, cluster, time.Minute, time.Hour) {
		t.Fatal("never-applied action reported in cooldown")
	}
	kb.RecordApplied(Action{Kind: ActionAddNode}, 10*time.Minute)
	if !kb.InCooldown(ActionAddNode, cluster, 11*time.Minute, 5*time.Minute) {
		t.Fatal("recently applied action should be in cooldown")
	}
	if kb.InCooldown(ActionAddNode, cluster, 20*time.Minute, 5*time.Minute) {
		t.Fatal("cooldown should have expired")
	}
	at, ok := kb.LastApplied(ActionAddNode, cluster)
	if !ok || at != 10*time.Minute {
		t.Fatalf("LastApplied = %v, %v", at, ok)
	}
	if _, ok := kb.LastApplied(ActionRemoveNode, cluster); ok {
		t.Fatal("LastApplied for never-applied action should report false")
	}
}

// TestControllerRepeatsActionDespiteWorseWindows pins that the knowledge base
// judges no action by its outcome: add-node is applied twice, each time
// followed by a wider window, and once the scale-out cooldown has passed the
// controller adds a node again. The window alone is no verdict on a
// scale-out — a new node widens it while it bootstraps.
func TestControllerRepeatsActionDespiteWorseWindows(t *testing.T) {
	act := newFakeActuator()
	c, err := New(DefaultConfig(testSLA()), act)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Each step is one scale-out cooldown after the last, with a window
	// wider than the one before it.
	for i, window := range []float64{0.5, 0.9, 1.5} {
		at := 100*time.Second + time.Duration(i)*scaleOutCooldown
		d := c.Step(makeSnapshot(snapshotOpts{
			at: at, windowP95: window, readP99: 0.01, writeP99: 0.01,
			meanUtil: 0.9, maxUtil: 0.95, clusterSize: act.size,
		}))
		if !d.Applied || d.Action.Kind != ActionAddNode {
			t.Fatalf("step %d at %v: decision %v, want applied add-node", i, at, d)
		}
	}
	if act.addCalls != 3 {
		t.Fatalf("actuator added %d nodes, want 3", act.addCalls)
	}
}
