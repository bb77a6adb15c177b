package store

import (
	"testing"
	"time"

	"autonosql/internal/obs"
)

// TestStoreWriteTraceSpans pins the causal span tree a sampled write records:
// dispatch, coordinator processing, per-replica arrival/apply, replica acks,
// the quorum decision, the client acknowledgement and the SLA-accounting
// terminal, in non-decreasing virtual-time order, finished exactly once.
func TestStoreWriteTraceSpans(t *testing.T) {
	rig := newBenchRig(t, 3)
	tr := obs.NewTracer(1, 0)
	rig.store.SetTracer(tr)

	fired := 0
	cb := func(Result) { fired++ }
	rig.store.WriteAs(0, rig.ids[0], cb)
	rig.settle(t, &fired, 1)
	// Drain until the tracked write resolved (all replicas applied), then a
	// little further so the late replica acks — in flight back to the
	// coordinator when the window is recorded — land in the trace too.
	for i := 0; i < 100000 && len(tr.Traces()) > 0 && !tr.Traces()[0].Done; i++ {
		if !rig.engine.Step() {
			break
		}
	}
	for i := 0; i < 20; i++ {
		rig.engine.Step()
	}

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if !got.Write || got.Key != string(rig.keys[0]) {
		t.Errorf("trace identity = write:%v key:%q", got.Write, got.Key)
	}
	if !got.Done || got.Err != "" {
		t.Fatalf("trace not finished cleanly: done=%v err=%q", got.Done, got.Err)
	}
	want := map[string]int{
		"dispatch": 1, "coordinate": 1, "quorum": 1, "client-ack": 1, "sla-account": 1,
	}
	counts := map[string]int{}
	last := time.Duration(-1)
	for _, ev := range got.Events {
		counts[ev.Phase]++
		if ev.At < last {
			t.Errorf("span %q at %v out of order (previous %v)", ev.Phase, ev.At, last)
		}
		last = ev.At
	}
	for phase, n := range want {
		if counts[phase] != n {
			t.Errorf("phase %q occurs %d times, want %d (events: %+v)", phase, counts[phase], n, got.Events)
		}
	}
	// RF=3 on a 3-node ring: every replica arrives (coordinator applies
	// inline, so 2 remote arrivals), applies and acks.
	if counts["replica-apply"] != 3 || counts["ack"] != 3 {
		t.Errorf("replica-apply=%d ack=%d, want 3 each", counts["replica-apply"], counts["ack"])
	}
	if got.End < got.Start {
		t.Errorf("trace end %v before start %v", got.End, got.Start)
	}
}

// TestStoreReadTraceSpans pins the read-side span tree.
func TestStoreReadTraceSpans(t *testing.T) {
	rig := newBenchRig(t, 3)
	fired := 0
	cb := func(Result) { fired++ }
	rig.store.WriteAs(0, rig.ids[0], cb)
	rig.settle(t, &fired, 1)

	tr := obs.NewTracer(1, 0)
	rig.store.SetTracer(tr)
	rig.store.ReadAs(0, rig.ids[0], cb)
	rig.settle(t, &fired, 2)

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Write {
		t.Error("read trace marked as a write")
	}
	if !got.Done || got.Err != "" {
		t.Fatalf("read trace not finished cleanly: done=%v err=%q", got.Done, got.Err)
	}
	counts := map[string]int{}
	for _, ev := range got.Events {
		counts[ev.Phase]++
	}
	for _, phase := range []string{"dispatch", "coordinate", "quorum", "client-done"} {
		if counts[phase] != 1 {
			t.Errorf("phase %q occurs %d times, want 1 (events: %+v)", phase, counts[phase], got.Events)
		}
	}
	if counts["replica-respond"] < 1 {
		t.Errorf("no replica-respond span recorded (events: %+v)", got.Events)
	}
}

// TestTracedUnsampledAllocationFree pins that attaching a tracer does not
// change the hot path's allocation budget for unsampled operations: with a
// sampling period far above the op count, every op takes the counter-only
// branch and stays within the same bounds as the tracer-off path.
func TestTracedUnsampledAllocationFree(t *testing.T) {
	rig := newBenchRig(t, 5)
	rig.store.SetTracer(obs.NewTracer(1<<30, 0))

	fired := 0
	cb := func(Result) { fired++ }
	issued := 0
	for ; issued < 128; issued++ {
		rig.store.Write(rig.keys[issued%len(rig.keys)], cb)
		rig.settle(t, &fired, issued+1)
	}
	avg := testing.AllocsPerRun(300, func() {
		issued++
		rig.store.Write(rig.keys[issued%len(rig.keys)], cb)
		rig.settle(t, &fired, issued)
	})
	if avg > maxWriteAllocs {
		t.Errorf("traced-unsampled write path allocates %.1f objects per op, want <= %d", avg, maxWriteAllocs)
	}
	avg = testing.AllocsPerRun(300, func() {
		issued++
		rig.store.Read(rig.keys[issued%len(rig.keys)], cb)
		rig.settle(t, &fired, issued)
	})
	if avg > maxReadAllocs {
		t.Errorf("traced-unsampled read path allocates %.1f objects per op, want <= %d", avg, maxReadAllocs)
	}
	if sampled := rig.store.tracer.Sampled(); sampled != 1 {
		// The very first op is sampled (counter starts at the period
		// boundary); nothing after it should be.
		t.Errorf("sampled %d ops, want exactly the first", sampled)
	}
}
