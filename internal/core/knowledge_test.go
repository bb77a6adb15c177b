package core

import (
	"testing"
	"time"
)

func TestKnowledgeCooldowns(t *testing.T) {
	kb := NewKnowledgeBase()
	if kb.InCooldown(ActionAddNode, time.Minute, time.Hour) {
		t.Fatal("never-applied action reported in cooldown")
	}
	kb.RecordApplied(Action{Kind: ActionAddNode}, 10*time.Minute, 0.1, time.Minute)
	if !kb.InCooldown(ActionAddNode, 11*time.Minute, 5*time.Minute) {
		t.Fatal("recently applied action should be in cooldown")
	}
	if kb.InCooldown(ActionAddNode, 20*time.Minute, 5*time.Minute) {
		t.Fatal("cooldown should have expired")
	}
	at, ok := kb.LastApplied(ActionAddNode)
	if !ok || at != 10*time.Minute {
		t.Fatalf("LastApplied = %v, %v", at, ok)
	}
	if _, ok := kb.LastApplied(ActionRemoveNode); ok {
		t.Fatal("LastApplied for never-applied action should report false")
	}
}

func TestKnowledgeEffectRecording(t *testing.T) {
	kb := NewKnowledgeBase()
	kb.RecordApplied(Action{Kind: ActionTightenWriteConsistency}, time.Minute, 0.200, 30*time.Second)

	// Observations before the settle time must not complete the record.
	kb.RecordObservation(time.Minute+10*time.Second, 0.500)
	if got := kb.Effectiveness(ActionTightenWriteConsistency).Samples; got != 0 {
		t.Fatalf("effect recorded before settle time: %d samples", got)
	}

	// After settling, the window dropped from 200 ms to 50 ms: 75% improvement.
	kb.RecordObservation(2*time.Minute, 0.050)
	eff := kb.Effectiveness(ActionTightenWriteConsistency)
	if eff.Samples != 1 {
		t.Fatalf("samples = %d, want 1", eff.Samples)
	}
	if eff.MeanWindowImprovement < 0.74 || eff.MeanWindowImprovement > 0.76 {
		t.Fatalf("mean improvement = %v, want ~0.75", eff.MeanWindowImprovement)
	}
	if eff.Harmful() {
		t.Fatal("a helpful action flagged harmful")
	}

	hist := kb.History()
	if len(hist) != 1 || hist[0].Action.Kind != ActionTightenWriteConsistency {
		t.Fatalf("unexpected history %+v", hist)
	}
	if kb.Applications() != 1 {
		t.Fatalf("Applications = %d, want 1", kb.Applications())
	}
}

func TestKnowledgeHarmfulDetection(t *testing.T) {
	kb := NewKnowledgeBase()
	// Two applications of tighten-read-cl that both made the window worse.
	for i := 0; i < 2; i++ {
		at := time.Duration(i+1) * 10 * time.Minute
		kb.RecordApplied(Action{Kind: ActionTightenReadConsistency}, at, 0.100, time.Minute)
		kb.RecordObservation(at+2*time.Minute, 0.300) // window tripled
	}
	eff := kb.Effectiveness(ActionTightenReadConsistency)
	if eff.Samples != 2 {
		t.Fatalf("samples = %d, want 2", eff.Samples)
	}
	if !eff.Harmful() {
		t.Fatalf("action that doubled the window twice should be harmful: %+v", eff)
	}
	// A single bad observation is not enough to call an action harmful.
	kb2 := NewKnowledgeBase()
	kb2.RecordApplied(Action{Kind: ActionAddNode}, time.Minute, 0.1, time.Second)
	kb2.RecordObservation(2*time.Minute, 0.2)
	if kb2.Effectiveness(ActionAddNode).Harmful() {
		t.Fatal("one observation should not mark an action harmful")
	}
}

func TestKnowledgeEffectWithZeroBaseline(t *testing.T) {
	kb := NewKnowledgeBase()
	kb.RecordApplied(Action{Kind: ActionAddNode}, time.Minute, 0, time.Second)
	kb.RecordObservation(2*time.Minute, 0.1)
	eff := kb.Effectiveness(ActionAddNode)
	if eff.Samples != 1 || eff.MeanWindowImprovement != 0 {
		t.Fatalf("zero baseline should yield zero improvement, got %+v", eff)
	}
}

func TestKnowledgeUnknownActionEffectiveness(t *testing.T) {
	kb := NewKnowledgeBase()
	eff := kb.Effectiveness(ActionRemoveNode)
	if eff.Samples != 0 || eff.Harmful() {
		t.Fatalf("unknown action should have empty effectiveness, got %+v", eff)
	}
}

func TestKnowledgeHistoryIsCopy(t *testing.T) {
	kb := NewKnowledgeBase()
	kb.RecordApplied(Action{Kind: ActionAddNode}, time.Minute, 0.2, time.Second)
	kb.RecordObservation(2*time.Minute, 0.1)
	h := kb.History()
	h[0].WindowAfter = 99
	if kb.History()[0].WindowAfter == 99 {
		t.Fatal("History must return a copy")
	}
}
