package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// smallSpec is a scenario small enough that a daemon round trip takes well
// under a second, with enough sample windows to stream.
func smallSpec() autonosql.ScenarioSpec {
	spec := autonosql.DefaultScenarioSpec()
	spec.Duration = 20 * time.Second
	spec.SampleInterval = 5 * time.Second
	spec.Workload.BaseOpsPerSec = 600
	spec.Workload.PeakOpsPerSec = 1200
	spec.Workload.Keyspace = 1000
	spec.Controller.Mode = autonosql.ControllerNone
	return spec
}

func newTestDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(Options{RetainWindows: 4096}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	resp, body := post(t, ts.URL+"/api/jobs", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := get(t, ts.URL+"/api/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonScenarioRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ts := newTestDaemon(t)
	spec := smallSpec()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}

	st := submit(t, ts, JobRequest{Name: "round-trip", Scenario: raw, Autostart: true})
	if st.Kind != kindScenario || st.Variants != 1 {
		t.Fatalf("submitted job status %+v, want scenario with 1 variant", st)
	}

	// Stream the run: JSON lines, sequenced, with sampled series values.
	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var windows []MetricWindow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var mw MetricWindow
		if err := json.Unmarshal(sc.Bytes(), &mw); err != nil {
			t.Fatalf("decoding stream line %q: %v", sc.Text(), err)
		}
		windows = append(windows, mw)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(windows) == 0 {
		t.Fatal("stream delivered no metric windows")
	}
	for i, mw := range windows {
		if mw.Seq != i {
			t.Fatalf("window %d has seq %d, want contiguous from 0", i, mw.Seq)
		}
		if mw.Job != st.ID || len(mw.Series) == 0 {
			t.Fatalf("window %d = %+v, want series values for job %s", i, mw, st.ID)
		}
	}

	final := waitState(t, ts, st.ID, StateDone)
	if final.Windows != len(windows) {
		t.Errorf("status reports %d windows, stream delivered %d", final.Windows, len(windows))
	}

	// The daemon's report must be byte-identical to the same spec offline.
	offline, err := autonosql.NewScenario(spec)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	rep, err := offline.Run()
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("encoding offline report: %v", err)
	}
	gresp, got := get(t, ts.URL+"/api/jobs/"+st.ID+"/report")
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d, body %s", gresp.StatusCode, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon report differs from offline run (%d vs %d bytes)", len(got), want.Len())
	}

	// The /meta envelope restores what the report deliberately omits.
	_, metaBody := get(t, ts.URL+"/api/jobs/"+st.ID+"/meta")
	var env MetaEnvelope
	if err := json.Unmarshal(metaBody, &env); err != nil {
		t.Fatalf("decoding meta envelope: %v", err)
	}
	if env.State != StateDone || env.Meta.Variants != 1 || env.Meta.Elapsed <= 0 {
		t.Errorf("meta envelope = %+v, want a finished single-variant run with elapsed time", env)
	}
	if env.ScenariosPerSecond <= 0 {
		t.Errorf("meta envelope ScenariosPerSecond = %v, want > 0", env.ScenariosPerSecond)
	}
}

func TestDaemonSuiteJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ts := newTestDaemon(t)
	base := smallSpec()
	rawBase, err := json.Marshal(base)
	if err != nil {
		t.Fatalf("marshal base: %v", err)
	}
	grid := autonosql.Grid{ClusterSizes: []int{2, 3}}
	rawGrid, err := json.Marshal(grid)
	if err != nil {
		t.Fatalf("marshal grid: %v", err)
	}

	st := submit(t, ts, JobRequest{Name: "grid", Suite: &SuiteRequest{
		Base: rawBase, Grid: rawGrid, Parallelism: 2,
	}})
	if st.Kind != kindSuite || st.Variants != 2 || st.State != StatePending {
		t.Fatalf("submitted job status %+v, want pending suite with 2 variants", st)
	}

	// Results before the job runs are a conflict, not an empty report.
	if resp, _ := get(t, ts.URL+"/api/jobs/"+st.ID+"/report"); resp.StatusCode != http.StatusConflict {
		t.Errorf("report of a pending job: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	if resp, body := post(t, ts.URL+"/api/jobs/"+st.ID+"/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: status %d, body %s", resp.StatusCode, body)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.Meta == nil || final.Meta.Variants != 2 || final.Meta.Failed != 0 {
		t.Fatalf("final status meta = %+v, want 2 variants, 0 failed", final.Meta)
	}

	// Byte-identical to the same suite offline, streamed aggregation and all.
	suite, err := autonosql.NewSuite(autonosql.SuiteSpec{Base: base, Grid: grid})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	report, err := suite.Run()
	if err != nil {
		t.Fatalf("offline suite run: %v", err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := report.WriteJSON(&wantJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := report.WriteCSV(&wantCSV); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if _, got := get(t, ts.URL+"/api/jobs/"+st.ID+"/report"); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("daemon suite report differs from offline export (%d vs %d bytes)", len(got), wantJSON.Len())
	}
	if _, got := get(t, ts.URL+"/api/jobs/"+st.ID+"/report.csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Errorf("daemon suite CSV differs from offline export:\n got %q\nwant %q", got, wantCSV.String())
	}
	if _, got := get(t, ts.URL+"/api/jobs/"+st.ID+"/tables"); !strings.Contains(string(got), "suite comparison — SLA outcomes") {
		t.Errorf("tables output missing the comparison table:\n%s", got)
	}

	// Both variants streamed windows, tagged with their variant names.
	_, streamBody := get(t, ts.URL+"/api/jobs/"+st.ID+"/stream")
	variants := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(streamBody)), "\n") {
		var mw MetricWindow
		if err := json.Unmarshal([]byte(line), &mw); err != nil {
			t.Fatalf("decoding stream line %q: %v", line, err)
		}
		variants[mw.Variant] = true
	}
	if len(variants) != 2 {
		t.Errorf("stream carried windows for variants %v, want both grid variants", variants)
	}
}

func TestDaemonPauseResumeCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ts := newTestDaemon(t)
	spec := smallSpec()
	spec.Duration = time.Hour // long enough that the test controls the end
	spec.SampleInterval = time.Second
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	st := submit(t, ts, JobRequest{Scenario: raw, Autostart: true})

	// Pausing is only meaningful once the run is sampling; wait for the
	// first window.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts.URL+"/api/jobs/"+st.ID)
		var cur JobStatus
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if cur.Windows > 0 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never sampled: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, body := post(t, ts.URL+"/api/jobs/"+st.ID+"/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: status %d, body %s", resp.StatusCode, body)
	}
	// Paused means frozen: the window count stops advancing because the
	// sample hook blocks on the simulation goroutine (virtual time stopped).
	frozen := waitState(t, ts, st.ID, StatePaused)
	time.Sleep(100 * time.Millisecond)
	after := waitState(t, ts, st.ID, StatePaused)
	if after.Windows != frozen.Windows {
		t.Errorf("windows advanced from %d to %d while paused", frozen.Windows, after.Windows)
	}
	// Pausing a paused job is a conflict.
	if resp, _ := post(t, ts.URL+"/api/jobs/"+st.ID+"/pause", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("double pause: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	if resp, body := post(t, ts.URL+"/api/jobs/"+st.ID+"/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d, body %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/api/jobs/"+st.ID+"/cancel", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, body)
	}
	final := waitState(t, ts, st.ID, StateCanceled)
	if final.Error == "" || !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled job error = %q, want one mentioning cancelation", final.Error)
	}
}

func TestDaemonRejectsBadSubmissions(t *testing.T) {
	ts := newTestDaemon(t)
	for name, body := range map[string]string{
		"unknown top-level field": `{"scenaroi": {}}`,
		"unknown spec field":      `{"scenario": {"Duratoin": 5}}`,
		"invalid spec":            `{"scenario": {"Duration": -5}}`,
		"negative keyspace":       `{"scenario": {"Workload": {"Keyspace": -1}}}`,
		"unknown kind":            `{"kind": "batch"}`,
		"suite without body":      `{"kind": "suite"}`,
		"scenario with suite":     `{"kind": "scenario", "suite": {}}`,
		"traces axis":             `{"suite": {"grid": {"Traces": [{"Name": "t"}]}}}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d (body %s), want %d", resp.StatusCode, b, http.StatusBadRequest)
			}
		})
	}

	// A body past the submit bound is refused as such, in the JSON error
	// shape, instead of being buffered to its end.
	big := `{"name": "` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST oversize body: %v", err)
	}
	var apiErr map[string]string
	decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || decodeErr != nil || apiErr["error"] == "" {
		t.Errorf("oversize body: status %d, body %v (decode: %v), want 413 with a JSON error", resp.StatusCode, apiErr, decodeErr)
	}

	if resp, _ := get(t, ts.URL+"/api/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/api/jobs/nope/start", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("starting unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestDaemonRejectsRemovedSpecFields pins the API break of the removed spec
// surface: a client that still asks for replication control, an epoch or a
// shard grid axis gets a 400 naming the field instead of a silent no-op,
// while the deprecated scenario-level Shards still loads.
func TestDaemonRejectsRemovedSpecFields(t *testing.T) {
	ts := newTestDaemon(t)
	for field, body := range map[string]string{
		"AllowReplicationChanges": `{"scenario": {"Controller": {"Mode": "smart", "AllowReplicationChanges": true}}}`,
		"Epoch":                   `{"scenario": {"Epoch": 1000000}}`,
		"Shards":                  `{"suite": {"grid": {"Shards": [1, 4]}}}`,
	} {
		t.Run(field, func(t *testing.T) {
			resp, b := postRaw(t, ts.URL+"/api/jobs", body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), field) {
				t.Errorf("status %d, body %s; want 400 naming %s", resp.StatusCode, b, field)
			}
		})
	}
	if resp, b := postRaw(t, ts.URL+"/api/jobs", `{"scenario": {"Shards": 1}}`); resp.StatusCode != http.StatusCreated {
		t.Errorf("spec with Shards: status %d, body %s; want 201", resp.StatusCode, b)
	}
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func TestDaemonHealthListShutdown(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok": true`) {
		t.Fatalf("healthz: status %d, body %s", resp.StatusCode, body)
	}

	// Submit two pending jobs; the list preserves submission order.
	spec := smallSpec()
	raw, _ := json.Marshal(spec)
	a := submit(t, ts, JobRequest{Name: "first", Scenario: raw})
	b := submit(t, ts, JobRequest{Name: "second", Scenario: raw})
	_, listBody := get(t, ts.URL+"/api/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatalf("decoding job list: %v", err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Fatalf("job list %+v, want [%s %s]", list.Jobs, a.ID, b.ID)
	}

	// A pending job cancels immediately.
	if resp, _ := post(t, ts.URL+"/api/jobs/"+a.ID+"/cancel", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel pending: status %d", resp.StatusCode)
	}
	st := waitState(t, ts, a.ID, StateCanceled)
	if st.Error != "" {
		t.Errorf("canceled pending job has error %q, want none (it never ran)", st.Error)
	}

	resp, _ = post(t, ts.URL+"/api/shutdown", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("shutdown: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown request not signalled")
	}
}

func TestMetricWindowRetentionBound(t *testing.T) {
	j := newJob("job-0001", "", kindScenario, 3)
	obs := j.observe("v")
	j.state = StateRunning
	for i := 0; i < 10; i++ {
		if err := obs(autonosql.SampleWindow{
			At:     time.Duration(i) * time.Second,
			Values: map[string]float64{"x": float64(i)},
		}); err != nil {
			t.Fatalf("observe window %d: %v", i, err)
		}
	}
	batch, next, _, _ := j.snapshotFrom(0)
	if len(batch) != 3 {
		t.Fatalf("retained %d windows, want 3", len(batch))
	}
	if batch[0].Seq != 7 || next != 10 {
		t.Fatalf("oldest retained seq %d, next %d; want 7 and 10", batch[0].Seq, next)
	}
	if fmt.Sprintf("%v", batch[2].Series["x"]) != "9" {
		t.Fatalf("newest window = %+v, want the last observed", batch[2])
	}
}

// TestStreamFollowerWakesForWindowsOnly pins what wakes a /stream follower
// of a traced job: each closed window and each state change, never one of
// the hundreds of spans the job publishes. A /spans follower is woken by
// spans.
func TestStreamFollowerWakesForWindowsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	j := newJob("job-0001", "", kindScenario, 0)
	j.spec = smallSpec()
	j.spec.Observe = &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 16}
	j.variants = 1
	// follow waits like a follower and sends how often it was woken. Its
	// first snapshot is taken before the job starts.
	follow := func(snapshot func(from int) (next int, terminal bool, wait <-chan struct{})) <-chan int {
		wakes := make(chan int, 1)
		next, terminal, wait := snapshot(0)
		go func() {
			n := 0
			for !terminal {
				<-wait
				n++
				next, terminal, wait = snapshot(next)
			}
			wakes <- n
		}()
		return wakes
	}
	windowWakes := follow(func(from int) (int, bool, <-chan struct{}) {
		_, next, terminal, wait := j.snapshotFrom(from)
		return next, terminal, wait
	})
	spanWakes := follow(func(from int) (int, bool, <-chan struct{}) {
		_, next, terminal, wait := j.snapshotSpansFrom(from)
		return next, terminal, wait
	})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	byWindows, bySpans := <-windowWakes, <-spanWakes
	j.mu.Lock()
	windows, spans := j.nextSeq, j.spans.next()
	j.mu.Unlock()
	if spans < 10*windows {
		t.Fatalf("the job published %d spans and %d windows; the test needs many more spans", spans, windows)
	}
	// Start and the terminal transition are the state changes.
	if byWindows > windows+2 {
		t.Errorf("the /stream follower woke %d times for %d windows and 2 state changes", byWindows, windows)
	}
	if bySpans == 0 {
		t.Errorf("the /spans follower never woke for %d spans", spans)
	}
}

// TestDaemonJobPanicFailsOnlyThatJob pins that a job whose run goroutine
// panics ends failed, with the panic value and its stack as its error, and
// that the daemon keeps serving: a job submitted afterwards finishes done.
func TestDaemonJobPanicFailsOnlyThatJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	beforeRun = func(j *Job) {
		if j.name == "boom" {
			panic("injected fault")
		}
	}
	t.Cleanup(func() { beforeRun = nil })
	ts := newTestDaemon(t)
	raw, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	bad := submit(t, ts, JobRequest{Name: "boom", Scenario: raw, Autostart: true})
	failed := waitState(t, ts, bad.ID, StateFailed)
	if !strings.Contains(failed.Error, "panic: injected fault") || !strings.Contains(failed.Error, "runtime/debug.Stack") {
		t.Errorf("failed job's error = %q, want the panic value and its stack", failed.Error)
	}
	good := submit(t, ts, JobRequest{Name: "after", Scenario: raw, Autostart: true})
	waitState(t, ts, good.ID, StateDone)
}
