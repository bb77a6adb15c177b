package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

func TestKeyIndex(t *testing.T) {
	cases := []struct {
		key store.Key
		idx int
		ok  bool
	}{
		{"key-0", 0, true},
		{"key-17", 17, true},
		{"key-16384", 16384, true},
		{"key-007", 0, false}, // non-canonical spelling
		{"key-+7", 0, false},
		{"key--1", 0, false},
		{"key-", 0, false},
		{"probe-3", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		idx, ok := KeyIndex(c.key)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("KeyIndex(%q) = (%d, %v), want (%d, %v)", c.key, idx, ok, c.idx, c.ok)
		}
	}
	// Every canonical name round-trips.
	for _, i := range []int{0, 1, 9999, 16383, 16384, 199999, 1 << 20, 1<<20 + 12345} {
		idx, ok := KeyIndex(keyName(store.KeyID(i)))
		if !ok || idx != i {
			t.Errorf("KeyIndex(keyName(%d)) = (%d, %v), want (%d, true)", i, idx, ok, i)
		}
	}
}

func sampleTrace() *Trace {
	return &Trace{
		Tenants: []string{"gold", "bronze"},
		Events: []TraceEvent{
			{At: 0, Tenant: "gold", Write: false, Key: 3},
			{At: 1500 * time.Microsecond, Tenant: "bronze", Write: true, Key: 10007},
			{At: 1500 * time.Microsecond, Tenant: "gold", Write: true, RawKey: "probe-1"},
			{At: 2 * time.Second, Tenant: "bronze", Write: false, Key: 0},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeTrace(want, &buf); err != nil {
		t.Fatalf("EncodeTrace: %v", err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(got.Tenants) != len(want.Tenants) || len(got.Events) != len(want.Events) {
		t.Fatalf("round trip changed shape: %+v vs %+v", got, want)
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
	// A second encode must be byte-identical (canonical form).
	var buf2 bytes.Buffer
	if err := EncodeTrace(got, &buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var buf1 bytes.Buffer
	if err := EncodeTrace(want, &buf1); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not canonical across a parse round trip")
	}
}

func TestParseTraceErrors(t *testing.T) {
	header := `{"v":1,"tenants":["gold"]}` + "\n"
	// want, when set, is part of the expected error: the rules a parsed trace
	// shares with every other trace come from Trace.Validate, which cites
	// tenant and event indices.
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", ""},
		{"no header", `{"t":0,"op":"r","k":1}` + "\n", ""},
		{"bad version", `{"v":2}` + "\n", ""},
		{"malformed header", `{"v":` + "\n", ""},
		{"duplicate tenant", `{"v":1,"tenants":["a","a"]}` + "\n", `duplicate trace tenant "a"`},
		{"empty tenant name", `{"v":1,"tenants":[""]}` + "\n", "trace tenant 0 has no name"},
		{"empty second tenant name", `{"v":1,"tenants":["gold",""]}` + "\n", "trace tenant 1 has no name"},
		{"malformed event", header + `{"t":nope}` + "\n", ""},
		{"unknown field", header + `{"t":0,"tn":"gold","op":"r","k":1,"zz":9}` + "\n", ""},
		{"trailing garbage", header + `{"t":0,"tn":"gold","op":"r","k":1} extra` + "\n", ""},
		{"negative time", header + `{"t":-5,"tn":"gold","op":"r","k":1}` + "\n", "trace event 0 at negative time"},
		{"fractional time", header + `{"t":1.5,"tn":"gold","op":"r","k":1}` + "\n", ""},
		{"out of order", header +
			`{"t":100,"tn":"gold","op":"r","k":1}` + "\n" +
			`{"t":99,"tn":"gold","op":"r","k":1}` + "\n", "trace event 1 out of order"},
		{"unknown tenant", header + `{"t":0,"tn":"silver","op":"r","k":1}` + "\n", `trace event 0 names unknown tenant "silver"`},
		{"missing tenant", header + `{"t":0,"op":"r","k":1}` + "\n", `trace event 0 names unknown tenant ""`},
		{"tenant in tenantless trace", `{"v":1}` + "\n" + `{"t":0,"tn":"gold","op":"r","k":1}` + "\n", "declares no tenants"},
		{"tenant on a later event of a tenantless trace", `{"v":1}` + "\n" +
			`{"t":0,"op":"r","k":1}` + "\n" +
			`{"t":1,"tn":"gold","op":"w","k":2}` + "\n", `trace event 1 names tenant "gold" but the trace declares no tenants`},
		{"bad op", header + `{"t":0,"tn":"gold","op":"x","k":1}` + "\n", ""},
		{"missing key", header + `{"t":0,"tn":"gold","op":"r"}` + "\n", ""},
		{"negative key", header + `{"t":0,"tn":"gold","op":"r","k":-1}` + "\n", "trace event 0 has negative key index -1"},
		{"both keys", header + `{"t":0,"tn":"gold","op":"r","k":1,"raw":"x"}` + "\n", ""},
		{"overlong line", header + `{"raw":"` + strings.Repeat("a", maxTraceLine+1) + `"}` + "\n", ""},
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.in))
		switch {
		case err == nil:
			t.Errorf("%s: ParseTrace accepted invalid input", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

// stampTarget records the virtual time and kind of every arrival it receives.
type stampTarget struct {
	engine *sim.Engine
	ops    []TraceEvent
}

func (f *stampTarget) Read(key store.Key, cb func(store.Result)) {
	f.ops = append(f.ops, TraceEvent{At: f.engine.Now(), RawKey: key})
}

func (f *stampTarget) Write(key store.Key, cb func(store.Result)) {
	f.ops = append(f.ops, TraceEvent{At: f.engine.Now(), Write: true, RawKey: key})
}

// TestTraceSourceReplaysExactTimes drives a source from a hand-built trace
// and checks every arrival hits the target at its recorded time, in order,
// including same-time events.
func TestTraceSourceReplaysExactTimes(t *testing.T) {
	engine := sim.NewEngine()
	stamps := &stampTarget{engine: engine}
	target := store.AdaptNames(stamps)
	events := []TraceEvent{
		{At: 0, Write: false, Key: 1},
		{At: 10 * time.Millisecond, Write: true, Key: 2},
		{At: 10 * time.Millisecond, Write: false, Key: 3},
		{At: time.Second, Write: true, RawKey: "probe-9"},
	}
	src, err := NewTraceSource(engine, target, target.KeyID, &Trace{Events: events}, "")
	if err != nil {
		t.Fatalf("NewTraceSource: %v", err)
	}
	src.Start()
	if err := engine.Run(2 * time.Second); err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	if src.Remaining() != 0 {
		t.Fatalf("%d events left unissued", src.Remaining())
	}
	if len(stamps.ops) != len(events) {
		t.Fatalf("target saw %d ops, want %d", len(stamps.ops), len(events))
	}
	for i, e := range events {
		want := e.RawKey
		if want == "" {
			want = keyName(store.KeyID(e.Key))
		}
		got := stamps.ops[i]
		if got.At != e.At || got.Write != e.Write || got.RawKey != want {
			t.Errorf("op %d = %+v, want at=%v write=%v key=%s", i, got, e.At, e.Write, want)
		}
	}
}

// TestRecorderRoundTrip records a generator's arrivals, replays them through a
// source, and re-records the replay: both traces must be identical.
func TestRecorderRoundTrip(t *testing.T) {
	run := func(replay *Trace) *Trace {
		engine := sim.NewEngine()
		rnd := sim.NewRandSource(99)
		target := store.AdaptNames(&stampTarget{engine: engine})
		rec, err := NewTraceRecorder(engine.Now, target.KeyName, nil)
		if err != nil {
			t.Fatalf("NewTraceRecorder: %v", err)
		}
		if replay == nil {
			gen, err := NewGenerator(Config{
				Profile: ConstantProfile{OpsPerSec: 500},
				Mix:     Mix{ReadFraction: 0.5},
				Keys:    NewUniformKeys(100, rnd.Stream("keys")),
				Until:   2 * time.Second,
			}, engine, &stampTarget{engine: engine}, rnd)
			if err != nil {
				t.Fatalf("NewGenerator: %v", err)
			}
			gen.Intercept(func(inner IDTarget) IDTarget { return rec.Wrap("", inner) })
			gen.Start()
		} else {
			src, err := NewTraceSource(engine, target, target.KeyID, replay, "")
			if err != nil {
				t.Fatalf("NewTraceSource: %v", err)
			}
			src.Intercept(func(inner IDTarget) IDTarget { return rec.Wrap("", inner) })
			src.Start()
		}
		if err := engine.Run(2 * time.Second); err != nil {
			t.Fatalf("engine.Run: %v", err)
		}
		return rec.Trace()
	}
	live := run(nil)
	if len(live.Events) == 0 {
		t.Fatal("recorded no events")
	}
	if err := live.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	replayed := run(live)
	if len(replayed.Events) != len(live.Events) {
		t.Fatalf("replay recorded %d events, want %d", len(replayed.Events), len(live.Events))
	}
	for i := range live.Events {
		if live.Events[i] != replayed.Events[i] {
			t.Fatalf("event %d drifted on replay: %+v vs %+v", i, live.Events[i], replayed.Events[i])
		}
	}
}
