package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"autonosql"
	"autonosql/internal/obs"
)

// encodeSpanRecords renders traces the way the span stream's wire type
// defines them: one json.Encoder line per SpanRecord, each carrying
// json.Marshal of its trace, sequenced from seq.
func encodeSpanRecords(t testing.TB, job string, seq int, variants []string, traces []*obs.OpTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, tr := range traces {
		raw, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("marshal trace %d: %v", i, err)
		}
		if err := enc.Encode(SpanRecord{Job: job, Variant: variants[i], Seq: seq + i, Span: raw}); err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// renderSpans renders a span-log view through the /spans writer.
func renderSpans(t testing.TB, job string, v spanView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newSpanWriter(&buf, job).write(&v); err != nil {
		t.Fatalf("rendering spans: %v", err)
	}
	return buf.Bytes()
}

// cloneTrace deep-copies a trace, since OnSpan callers may not retain one.
func cloneTrace(tr *obs.OpTrace) *obs.OpTrace {
	c := *tr
	if tr.Events != nil {
		c.Events = append([]obs.SpanEvent{}, tr.Events...)
	}
	return &c
}

// fuzzScript hands out a fuzz input's bytes, then zeros.
type fuzzScript struct{ b []byte }

func (s *fuzzScript) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// duration is a small signed step most of the time and any int64 otherwise,
// so deltas overflow and wrap.
func (s *fuzzScript) duration() time.Duration {
	c := s.byte()
	if c&1 == 0 {
		return time.Duration(int8(c)) * time.Millisecond
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return time.Duration(binary.LittleEndian.Uint64(raw[:]))
}

// FuzzSpanLog judges the span-log codec: arbitrary traces appended to a log
// (with or without a retention cap) must render, from any sequence, exactly
// the bytes a json.Encoder writes for SpanRecords carrying json.Marshal of
// the same traces — and a view taken mid-way must still render its own
// records after later appends and compactions.
func FuzzSpanLog(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1), "user42", "gold", "", "admission", uint8(0), uint16(0))
	f.Add([]byte{200, 9, 17, 33, 255, 128, 7, 1, 0, 0, 0, 0, 0, 0, 128, 66, 5, 5, 5}, uint64(math.MaxUint64), "k<&>", "<&>", "v\xff\xfe", "shed", uint8(2), uint16(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint64(0), "", "", "", "", uint8(1), uint16(5))
	// Three traces: three events with a backwards step and a negative node,
	// two events, then empty but non-nil Events.
	f.Add([]byte{2,
		2, 1, 1, 2, 0, 20, 6, 3, 2, 3, 1, 4, 254, 5, 255, 0, 4, 3, 2, 6, 3,
		7, 2, 5, 5, 6, 40, 4, 2, 2, 3, 0, 0, 2, 4, 2, 0, 5,
		4, 3, 0, 1, 7, 0, 0, 0, 0}, uint64(7), "key-9", "<&>", "nodes=3", "shed", uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, script []byte, id uint64, key, tenant, variant, note string, retain uint8, from uint16) {
		s := &fuzzScript{b: script}
		pool := []string{"", key, tenant, variant, note, "<&>", "\xff\xfe", "a\u2028b\"\\"}
		pick := func() string { return pool[int(s.byte())%len(pool)] }
		const job = "job-<0001>"
		var (
			log      spanLog
			traces   []*obs.OpTrace
			variants []string
			held     spanView
			heldBody []byte
		)
		n := 1 + int(s.byte())%40
		for i := 0; i < n; i++ {
			flags := s.byte()
			tr := &obs.OpTrace{
				ID:     id + uint64(i)*uint64(s.byte()),
				Tenant: pick(),
				Write:  flags&1 != 0,
				Done:   flags&2 != 0,
				Key:    pick(),
				Err:    pick(),
				Start:  s.duration(),
			}
			tr.End = tr.Start + s.duration()
			if events := int(s.byte()) % 6; events > 0 || flags&4 != 0 {
				tr.Events = []obs.SpanEvent{}
				at := tr.Start
				for e := 0; e < events; e++ {
					at += s.duration()
					tr.Events = append(tr.Events, obs.SpanEvent{At: at, Phase: pick(), Node: int(int8(s.byte())), Note: pick()})
				}
			}
			v := pick()
			log.add(v, tr, int(retain))
			traces = append(traces, tr)
			variants = append(variants, v)
			if i == n/2 {
				held, _ = log.view(int(from))
				heldBody = renderSpans(t, job, held)
			}
		}
		if log.next() != n {
			t.Fatalf("next = %d after %d adds", log.next(), n)
		}
		first := 0
		if retain > 0 {
			first = max(n-int(retain), 0)
		}
		v, next := log.view(int(from))
		start := max(int(from), first)
		if len(v.ends) != max(n-start, 0) || next != start+len(v.ends) {
			t.Fatalf("view(%d) of %d records (retain %d): %d records, next %d", from, n, retain, len(v.ends), next)
		}
		got := renderSpans(t, job, v)
		lo := min(start, n)
		want := encodeSpanRecords(t, job, lo, variants[lo:], traces[lo:])
		if !bytes.Equal(got, want) {
			t.Fatalf("rendered from %d:\n%s\nwant:\n%s", from, got, want)
		}
		if again := renderSpans(t, job, held); !bytes.Equal(again, heldBody) {
			t.Fatalf("a held view changed after later appends:\n%s\nwas:\n%s", again, heldBody)
		}
	})
}

// spanOf is a small finished trace for retention tests.
func spanOf(i int) *obs.OpTrace {
	start := time.Duration(i) * time.Millisecond
	return &obs.OpTrace{
		ID: uint64(i + 1), Write: i%2 == 0, Key: fmt.Sprintf("key-%d", i%10), Start: start,
		End: start + 3*time.Millisecond, Done: true,
		Events: []obs.SpanEvent{
			{At: start, Phase: "arrive"},
			{At: start + time.Millisecond, Phase: "replica-ack", Node: 2},
			{At: start + 3*time.Millisecond, Phase: "client-ack"},
		},
	}
}

// TestSpanRetentionBound pins the span log's retention: with retain 3 it
// serves the newest three spans, its arrays stay within a small constant of
// three records however many spans pass through, and a view a streamer holds
// keeps its bytes while compaction runs concurrently (run with -race).
func TestSpanRetentionBound(t *testing.T) {
	j := newJob("job-0001", "", kindScenario, 3)
	publish := j.publishSpan("v")
	j.state = StateRunning
	for i := 0; i < 10; i++ {
		publish(spanOf(i))
	}
	batch, next, _, _ := j.snapshotSpansFrom(0)
	if len(batch.ends) != 3 || batch.seq != 7 || next != 10 {
		t.Fatalf("retained %d spans from seq %d, next %d; want 3 from 7, next 10", len(batch.ends), batch.seq, next)
	}
	held := renderSpans(t, j.id, batch)
	want := encodeSpanRecords(t, j.id, 7, []string{"v", "v", "v"}, []*obs.OpTrace{spanOf(7), spanOf(8), spanOf(9)})
	if !bytes.Equal(held, want) {
		t.Fatalf("retained spans render\n%s\nwant\n%s", held, want)
	}

	// A streamer renders snapshots while the simulation keeps publishing.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _, _, _ := j.snapshotSpansFrom(0)
			_ = newSpanWriter(io.Discard, j.id).write(&v)
		}
	}()
	for i := 10; i < 10010; i++ {
		publish(spanOf(i))
	}
	close(stop)
	wg.Wait()

	if again := renderSpans(t, j.id, batch); !bytes.Equal(again, held) {
		t.Fatalf("a held view changed after 10000 more spans:\n%s\nwas:\n%s", again, held)
	}
	last, next, _, _ := j.snapshotSpansFrom(0)
	if len(last.ends) != 3 || last.seq != 10007 || next != 10010 {
		t.Fatalf("retained %d spans from seq %d, next %d; want 3 from 10007, next 10010", len(last.ends), last.seq, next)
	}
	records := int(last.ends[2] - last.lo)
	if c := cap(j.spans.buf); c > 8*records {
		t.Errorf("span log buffer holds %d B for 3 retained records of %d B", c, records)
	}
	if c := cap(j.spans.ends); c > 8*3 {
		t.Errorf("span log index holds %d entries for 3 retained records", c)
	}
}

// daemonJobsSpec is the benchmark's daemon_jobs job: a smart-controller run
// at 2000 ops/s for 20 s with every 64th op traced.
func daemonJobsSpec() autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = 11
	spec.Duration = 20 * time.Second
	spec.SampleInterval = 5 * time.Second
	spec.Workload.BaseOpsPerSec = 2000
	spec.Controller.Mode = autonosql.ControllerSmart
	spec.Controller.ControlInterval = 5 * time.Second
	spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 64, Audit: true, Profile: true}
	return spec
}

// TestRetainedSpanFootprint bounds what a finished daemon_jobs-shaped job
// keeps per span: the span log's arrays, index and string table.
func TestRetainedSpanFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	j := newJob("job-0001", "", kindScenario, 0)
	j.spec = daemonJobsSpec()
	j.variants = 1
	j.state = StateRunning
	j.run()
	if j.state != StateDone {
		t.Fatalf("job ended %s: %v", j.state, j.runErr)
	}
	spans := j.spans.next()
	if spans < 500 {
		t.Fatalf("job retained %d spans, want a daemon_jobs-sized trace", spans)
	}
	retained := cap(j.spans.buf) + 4*cap(j.spans.ends) + 16*cap(j.spans.strs)
	for _, s := range j.spans.strs {
		retained += len(s)
	}
	v, _ := j.spans.view(0)
	served := len(renderSpans(t, j.id, v))
	perSpan := float64(retained) / float64(spans)
	t.Logf("%d spans: %d B retained (%.1f B/span); /spans serves %d B (%.1f B/span)",
		spans, retained, perSpan, served, float64(served)/float64(spans))
	if perSpan > 96 {
		t.Errorf("span log keeps %.1f B per span, want <= 96", perSpan)
	}
}

// seqField is a span line's sequence number, which at suite parallelism
// above one depends on how the variants' goroutines interleave.
var seqField = regexp.MustCompile(`"seq":[0-9]+`)

// TestDaemonSpansMatchInProcess wires the span log to the in-process
// surface: a job's /spans body — followed live, and replayed from ?from=100
// — equals the SpanRecord lines of the traces an in-process run of the same
// spec hands to OnSpan. The suite job carries two tenants (one named <&>),
// admission shedding and variant names.
func TestDaemonSpansMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ts := newTestDaemon(t)

	// checkJob submits req, follows its spans live, then replays from 100.
	// Unordered, the live lines are compared as a multiset without seqs.
	checkJob := func(t *testing.T, req JobRequest, want []byte, ordered bool) {
		t.Helper()
		st := submit(t, ts, req)
		_, live := get(t, ts.URL+"/api/jobs/"+st.ID+"/spans")
		waitState(t, ts, st.ID, StateDone)
		_, replay := get(t, ts.URL+"/api/jobs/"+st.ID+"/spans?from=100")
		want = bytes.ReplaceAll(want, []byte(`"job":"job-0000"`), []byte(`"job":"`+st.ID+`"`))
		lines := bytes.SplitAfter(live, []byte("\n"))
		if len(lines) < 102 {
			t.Fatalf("/spans served %d spans, want more than 100", len(lines)-1)
		}
		if tail := bytes.Join(lines[100:], nil); !bytes.Equal(replay, tail) {
			t.Errorf("/spans?from=100 differs from the live body's tail (%d vs %d B)", len(replay), len(tail))
		}
		if !ordered {
			live, want = unordered(live), unordered(want)
		}
		if !bytes.Equal(live, want) {
			t.Errorf("live /spans differs from the in-process spans (%d vs %d B)", len(live), len(want))
		}
	}

	t.Run("scenario", func(t *testing.T) {
		spec := smallSpec()
		spec.Seed = 5
		spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 16}
		var variants []string
		var traces []*obs.OpTrace
		sc, err := autonosql.NewScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		sc.OnSpan(func(tr *obs.OpTrace) {
			variants = append(variants, "")
			traces = append(traces, cloneTrace(tr))
		})
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(spec)
		checkJob(t, JobRequest{Scenario: raw, Autostart: true}, encodeSpanRecords(t, "job-0000", 0, variants, traces), true)
	})

	base := smallSpec()
	base.Seed = 9
	base.Duration = time.Minute
	base.Cluster.NodeOpsPerSec = 1200
	base.Controller.Mode = autonosql.ControllerSmart
	base.Controller.Admission = autonosql.AdmissionSpec{Enabled: true}
	base.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 40}
	base.Tenants = []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.6,
		}},
		{Name: "<&>", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadSpike, BaseOpsPerSec: 300, PeakOpsPerSec: 1800, ReadFraction: 0.2, Keyspace: 4000,
		}},
	}
	grid := autonosql.Grid{ClusterSizes: []int{2, 3}}
	var variants []string
	var traces []*obs.OpTrace
	for _, v := range autonosql.ExpandGrid(base, grid) {
		sc, err := autonosql.NewScenario(v.Spec)
		if err != nil {
			t.Fatal(err)
		}
		sc.OnSpan(func(tr *obs.OpTrace) {
			variants = append(variants, v.Name)
			traces = append(traces, cloneTrace(tr))
		})
		if _, err := sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := encodeSpanRecords(t, "job-0000", 0, variants, traces)
	for _, s := range []string{`"tenant":"\u003c\u0026\u003e"`, `"phase":"shed"`, `"variant":"` + variants[0] + `"`, `"variant":"` + variants[len(variants)-1] + `"`} {
		if !strings.Contains(string(want), s) {
			t.Fatalf("suite spans never contain %s; the job would not cover it", s)
		}
	}
	baseJSON, _ := json.Marshal(base)
	gridJSON, _ := json.Marshal(grid)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("suite/parallelism=%d", par), func(t *testing.T) {
			req := JobRequest{Suite: &SuiteRequest{Base: baseJSON, Grid: gridJSON, Parallelism: par}, Autostart: true}
			checkJob(t, req, want, par == 1)
		})
	}
}

// unordered canonicalises span lines whose interleaving is scheduling
// dependent: sequence numbers removed, lines sorted.
func unordered(body []byte) []byte {
	lines := strings.SplitAfter(seqField.ReplaceAllString(string(body), `"seq":0`), "\n")
	slices.Sort(lines)
	return []byte(strings.Join(lines, ""))
}
