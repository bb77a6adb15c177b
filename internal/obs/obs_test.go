package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTracerSampling pins the every-Nth election: the first op is always
// sampled, ids are dense over the sampled ops, and the counters agree.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 0)
	var got []uint64
	for i := 0; i < 10; i++ {
		if sp := tr.Begin("t", true, "k", 0); sp != nil {
			got = append(got, sp.ID)
		}
	}
	if len(got) != 4 { // ops 1, 4, 7, 10
		t.Fatalf("sampled %d of 10 ops at every=3, want 4", len(got))
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Errorf("trace id %d, want %d (ids must be dense)", id, i+1)
		}
	}
	if tr.Seen() != 10 || tr.Sampled() != 4 {
		t.Errorf("seen=%d sampled=%d, want 10/4", tr.Seen(), tr.Sampled())
	}
}

// TestTracerRetention pins the bounded-retention cap and its drop counter.
func TestTracerRetention(t *testing.T) {
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.Begin("", false, "k", time.Duration(i))
	}
	if len(tr.Traces()) != 2 {
		t.Fatalf("retained %d traces, want 2", len(tr.Traces()))
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped=%d, want 3", tr.Dropped())
	}
	if tr.Traces()[0].ID != 4 || tr.Traces()[1].ID != 5 {
		t.Errorf("retained ids %d,%d, want the newest (4,5)", tr.Traces()[0].ID, tr.Traces()[1].ID)
	}
}

// TestTracerRetentionMatchesNewestN checks the retained traces against a
// naive newest-N list over 10^4 sampled ops, at limits that evict on every op
// (1), compact often (3) and compact rarely (1024), and at every step.
func TestTracerRetentionMatchesNewestN(t *testing.T) {
	for _, limit := range []int{1, 3, 1024} {
		tr := NewTracer(1, limit)
		var want []uint64
		for i := 0; i < 10000; i++ {
			want = append(want, tr.Begin("", false, "k", time.Duration(i)).ID)
			if len(want) > limit {
				want = want[1:]
			}
			got := tr.Traces()
			if len(got) != len(want) || got[0].ID != want[0] || got[len(got)-1].ID != want[len(want)-1] {
				t.Fatalf("limit %d, op %d: retained %d traces, want %d (ids %d..%d)", limit, i, len(got), len(want), want[0], want[len(want)-1])
			}
		}
		for i, sp := range tr.Traces() {
			if sp.ID != want[i] {
				t.Fatalf("limit %d: retained trace %d has id %d, want %d", limit, i, sp.ID, want[i])
			}
		}
		if wantDropped := uint64(10000 - limit); tr.Dropped() != wantDropped {
			t.Errorf("limit %d: dropped=%d, want %d", limit, tr.Dropped(), wantDropped)
		}
	}
}

// BenchmarkTracerBegin samples every op into a tracer that is already at its
// retention limit, so each Begin evicts one trace; ns/op should not grow with
// the limit.
func BenchmarkTracerBegin(b *testing.B) {
	for _, limit := range []int{1024, 65536} {
		b.Run(strconv.Itoa(limit), func(b *testing.B) {
			tr := NewTracer(1, limit)
			for i := 0; i < limit; i++ {
				tr.Begin("", false, "k", 0)
			}
			b.ReportAllocs()
			for b.Loop() {
				tr.Begin("", false, "k", 0)
			}
		})
	}
}

// TestTracerStaging pins the runtime-to-store handoff: a staged trace (even
// a nil one) is consumed exactly once, and an unstaged handoff reports ok
// false so the store begins its own trace.
func TestTracerStaging(t *testing.T) {
	tr := NewTracer(2, 0)
	sp := tr.Begin("gold", true, "k", 0) // sampled
	tr.Stage(sp)
	got, ok := tr.Handoff()
	if !ok || got != sp {
		t.Fatalf("Handoff = (%v, %v), want the staged trace", got, ok)
	}
	if _, ok := tr.Handoff(); ok {
		t.Error("second Handoff still reported a staged trace")
	}

	// Unsampled op: stage nil so the store does not re-sample.
	if sp := tr.Begin("gold", true, "k", 0); sp != nil {
		t.Fatal("second op sampled at every=2")
	}
	tr.Stage(nil)
	if got, ok := tr.Handoff(); !ok || got != nil {
		t.Fatalf("Handoff after nil stage = (%v, %v), want (nil, true)", got, ok)
	}
}

// TestTracerFinish pins the once-only finish semantics and the sink hook.
func TestTracerFinish(t *testing.T) {
	tr := NewTracer(1, 0)
	var sunk []*OpTrace
	tr.SetSink(func(sp *OpTrace) { sunk = append(sunk, sp) })
	sp := tr.Begin("", true, "k", time.Second)
	sp.Add(2*time.Second, "quorum", 3)
	tr.Finish(sp, 3*time.Second, "")
	tr.Finish(sp, 9*time.Second, "late") // must be ignored
	if sp.End != 3*time.Second || sp.Err != "" || !sp.Done {
		t.Errorf("finish state end=%v err=%q done=%v", sp.End, sp.Err, sp.Done)
	}
	if len(sunk) != 1 {
		t.Errorf("sink fired %d times, want 1", len(sunk))
	}
	var nilTrace *OpTrace
	nilTrace.Add(0, "noop", 0) // must not panic
	tr.Finish(nil, 0, "")      // must not panic
}

// TestExportDeterminism pins that both exporters emit identical bytes for
// identical traces and that the Chrome export is well-formed JSON.
func TestExportDeterminism(t *testing.T) {
	build := func() []*OpTrace {
		tr := NewTracer(1, 0)
		a := tr.Begin("gold", true, "user-1", 10*time.Millisecond)
		a.Add(11*time.Millisecond, "coordinate", 2)
		a.AddNote(12*time.Millisecond, "replica-apply", 3, "hinted")
		tr.Finish(a, 15*time.Millisecond, "")
		b := tr.Begin("bronze", false, "user-2", 20*time.Millisecond)
		tr.Finish(b, 21*time.Millisecond, "shed")
		return tr.Traces()
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := WriteJSONL(&j1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&j2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSONL export differs between identical runs")
	}
	if lines := strings.Count(j1.String(), "\n"); lines != 2 {
		t.Errorf("JSONL export has %d lines, want 2", lines)
	}
	if err := WriteChromeTrace(&c1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&c2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("Chrome export differs between identical runs")
	}
	var events []map[string]any
	if err := json.Unmarshal(c1.Bytes(), &events); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	// 2 complete events + 2 instants for trace a's phases.
	if len(events) != 4 {
		t.Errorf("Chrome export has %d events, want 4", len(events))
	}
}
