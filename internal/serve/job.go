package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"autonosql"
	"autonosql/internal/obs"
)

// State is a job's lifecycle state.
type State string

const (
	StatePending  State = "pending"  // submitted, not started
	StateRunning  State = "running"  // simulating
	StatePaused   State = "paused"   // frozen at a sample window (virtual time stopped)
	StateDone     State = "done"     // finished, report available
	StateFailed   State = "failed"   // finished with an error
	StateCanceled State = "canceled" // canceled by request
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// errCanceled flows out of the sample hook when a job is canceled; the
// scenario aborts at the current event and the run returns it.
var errCanceled = errors.New("canceled by request")

// MetricWindow is one closed sampling window of one running variant — the
// unit of the daemon's streaming surface. Windows carry a job-wide sequence
// number so a client can resume a stream from where it left off.
type MetricWindow struct {
	Job     string `json:"job"`
	Variant string `json:"variant,omitempty"`
	Seq     int    `json:"seq"`
	// AtSeconds is the window's virtual-time close in seconds.
	AtSeconds float64 `json:"at_s"`
	// Series maps every sampled series name to its value in this window.
	Series map[string]float64 `json:"series"`
}

// SpanRecord is one finished op trace on the daemon's span stream. Spans
// carry a job-wide sequence number, like metric windows, so a client can
// resume from where it left off.
type SpanRecord struct {
	Job     string `json:"job"`
	Variant string `json:"variant,omitempty"`
	Seq     int    `json:"seq"`
	// Span is the op trace in its canonical JSON form (the same bytes
	// Scenario.WriteSpans emits per line).
	Span json.RawMessage `json:"span"`
}

// MetaEnvelope is the run-metadata record the daemon keeps per job. The
// report exports (WriteJSON/WriteCSV) deliberately exclude wall-clock
// metadata so identical runs export identical bytes; this envelope is where
// that metadata lives instead, so ScenariosPerSecond survives a round trip.
type MetaEnvelope struct {
	Job       string     `json:"job"`
	Name      string     `json:"name,omitempty"`
	Kind      string     `json:"kind"`
	State     State      `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Meta is the run's measurement metadata: wall-clock elapsed, worker
	// parallelism, variants attempted and failed.
	Meta               autonosql.RunMeta `json:"meta"`
	ScenariosPerSecond float64           `json:"scenarios_per_second"`
}

// JobStatus is the poll-facing summary of a job.
type JobStatus struct {
	ID        string             `json:"id"`
	Name      string             `json:"name,omitempty"`
	Kind      string             `json:"kind"`
	State     State              `json:"state"`
	Submitted time.Time          `json:"submitted"`
	Started   *time.Time         `json:"started,omitempty"`
	Finished  *time.Time         `json:"finished,omitempty"`
	Error     string             `json:"error,omitempty"`
	Variants  int                `json:"variants"`
	Windows   int                `json:"windows"`
	Meta      *autonosql.RunMeta `json:"meta,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

const (
	kindScenario = "scenario"
	kindSuite    = "suite"
)

// Job hosts one scenario or suite run: lifecycle, retained metric windows,
// and the aggregated results. All exported methods are safe for concurrent
// use; the sample hook runs on the simulation goroutines.
type Job struct {
	id   string
	name string
	kind string

	spec         autonosql.ScenarioSpec // kindScenario
	suite        *autonosql.Suite       // kindSuite
	variants     int
	maxViolation float64
	retain       int

	mu        sync.Mutex
	cond      *sync.Cond // wakes paused sample hooks
	state     State
	paused    bool
	canceled  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	runErr    error

	// Retained stream: a sliding window of the most recent metric windows.
	// windows[0] has sequence firstSeq; nextSeq is one past the newest.
	windows  []MetricWindow
	firstSeq int
	nextSeq  int
	// Retained span stream, bounded by retain like the window ring. Empty
	// unless the job's spec enables Observe.TraceOps.
	spans spanLog
	// A follower of the windows or of the spans waits on windowsReady or
	// spansReady instead of holding the lock. Each is made when a follower
	// asks for it, and closed and cleared when a window or a span is
	// published or the state changes.
	windowsReady chan struct{}
	spansReady   chan struct{}

	// Aggregated results, written by the run goroutine and its suite
	// workers, read by handlers only after the state turns terminal (the
	// state transition under mu orders the accesses).
	meta autonosql.RunMeta
	// trail is a scenario job's MAPE audit trail, non-nil once its run
	// produced a report.
	trail      []autonosql.AuditEntry
	reportJSON bytes.Buffer
	csv        bytes.Buffer
	tenantsCSV bytes.Buffer
	tables     bytes.Buffer
	failures   []string
}

func newJob(id, name, kind string, retain int) *Job {
	j := &Job{
		id:        id,
		name:      name,
		kind:      kind,
		retain:    retain,
		state:     StatePending,
		submitted: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// stateChangedLocked wakes every follower and the paused sample hooks;
// callers hold mu.
func (j *Job) stateChangedLocked() {
	wake(&j.windowsReady)
	wake(&j.spansReady)
	j.cond.Broadcast()
}

// wake closes the channel a follower waits on, if one does; callers hold mu.
func wake(ready *chan struct{}) {
	if *ready != nil {
		close(*ready)
		*ready = nil
	}
}

// waitOn returns the channel that wake closes next, made on demand; callers
// hold mu.
func waitOn(ready *chan struct{}) <-chan struct{} {
	if *ready == nil {
		*ready = make(chan struct{})
	}
	return *ready
}

// Start launches the job's simulation goroutine. Only pending jobs start.
func (j *Job) Start() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return fmt.Errorf("job %s is %s, not pending", j.id, j.state)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.stateChangedLocked()
	go j.run()
	return nil
}

// Pause freezes the job at its next sample window: the hook blocks on the
// simulation goroutine, so virtual time stops dead — no drift, no skipped
// samples. With suite parallelism above one, each in-flight variant freezes
// at its own next window.
func (j *Job) Pause() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return fmt.Errorf("job %s is %s, not running", j.id, j.state)
	}
	j.paused = true
	j.state = StatePaused
	j.stateChangedLocked()
	return nil
}

// Resume unfreezes a paused job.
func (j *Job) Resume() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePaused {
		return fmt.Errorf("job %s is %s, not paused", j.id, j.state)
	}
	j.paused = false
	j.state = StateRunning
	j.stateChangedLocked()
	return nil
}

// Cancel stops the job: a pending job terminates immediately; a running or
// paused one aborts at its next sample window, halting the engine at the
// current event.
func (j *Job) Cancel() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return fmt.Errorf("job %s is already %s", j.id, j.state)
	}
	if j.state == StatePending {
		j.state = StateCanceled
		j.finished = time.Now()
		j.stateChangedLocked()
		return nil
	}
	j.canceled = true
	j.paused = false
	j.stateChangedLocked()
	return nil
}

// sampleGate implements pause and cancel from inside the sample hook. It
// runs on a simulation goroutine: blocking here blocks the engine.
func (j *Job) sampleGate() error {
	j.mu.Lock()
	for j.paused && !j.canceled {
		j.cond.Wait()
	}
	canceled := j.canceled
	j.mu.Unlock()
	if canceled {
		return errCanceled
	}
	return nil
}

// observe returns the OnSample hook for one variant: gate (pause/cancel),
// then retain and publish the window.
func (j *Job) observe(variant string) func(autonosql.SampleWindow) error {
	return func(w autonosql.SampleWindow) error {
		if err := j.sampleGate(); err != nil {
			return err
		}
		j.mu.Lock()
		mw := MetricWindow{
			Job:       j.id,
			Variant:   variant,
			Seq:       j.nextSeq,
			AtSeconds: w.At.Seconds(),
			Series:    w.Values,
		}
		j.nextSeq++
		j.windows = append(j.windows, mw)
		if j.retain > 0 && len(j.windows) > j.retain {
			// Slide past the oldest window. When the array's tail runs
			// out, append moves the retained windows to a new array with
			// room to spare, so eviction costs O(1) amortised.
			j.windows[0] = MetricWindow{}
			j.windows = j.windows[1:]
			j.firstSeq++
		}
		wake(&j.windowsReady)
		j.mu.Unlock()
		return nil
	}
}

// publishSpan returns the OnSpan sink for one variant: the finished trace is
// appended to the span log. It runs on a simulation goroutine, so the span
// stream follows the run live.
func (j *Job) publishSpan(variant string) func(*obs.OpTrace) {
	return func(tr *obs.OpTrace) {
		j.mu.Lock()
		j.spans.add(variant, tr, j.retain)
		wake(&j.spansReady)
		j.mu.Unlock()
	}
}

// beforeRun, when set, is called by each job's run goroutine before it
// simulates anything, and beforeVariant as each variant of a suite job is
// configured. Tests set them to make one job or one variant panic.
var beforeRun func(*Job)
var beforeVariant func(j *Job, variant string)

// run executes the job to completion. It owns the result buffers until the
// terminal state transition publishes them.
func (j *Job) run() {
	err := j.execute()
	j.mu.Lock()
	j.finished = time.Now()
	j.runErr = err
	j.spans.rebase() // no span comes after Run returns: drop the growth slack
	switch {
	case j.canceled:
		j.state = StateCanceled
	case err != nil:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	j.stateChangedLocked()
	j.mu.Unlock()
}

// execute simulates the job. A panic on the run goroutine fails this job
// alone: the panic value and its stack become the job's error, and every
// other job keeps running.
func (j *Job) execute() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if beforeRun != nil {
		beforeRun(j)
	}
	switch j.kind {
	case kindScenario:
		return j.runScenario()
	case kindSuite:
		return j.runSuite()
	}
	return fmt.Errorf("unknown job kind %q", j.kind)
}

func (j *Job) runScenario() error {
	sc, err := autonosql.NewScenario(j.spec)
	if err != nil {
		return err
	}
	sc.OnSample(j.observe(""))
	sc.OnSpan(j.publishSpan("")) // no-op unless Observe.TraceOps is set
	started := time.Now()
	rep, err := sc.Run()
	j.meta = autonosql.RunMeta{Elapsed: time.Since(started), Parallelism: 1, Variants: 1}
	if err != nil {
		j.meta.Failed = 1
		return err
	}
	j.trail = rep.Audit
	if j.trail == nil {
		j.trail = []autonosql.AuditEntry{}
	}
	enc := json.NewEncoder(&j.reportJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("encoding scenario report: %w", err)
	}
	j.tables.WriteString(rep.String())
	return nil
}

func (j *Job) runSuite() error {
	agg := autonosql.NewSuiteAggregator(autonosql.SuiteAggregatorOptions{
		CSV:                 &j.csv,
		TenantsCSV:          &j.tenantsCSV,
		JSON:                &j.reportJSON,
		MaxViolationMinutes: j.maxViolation,
	})
	meta, runErr := j.suite.RunStream(agg.Consume())
	closeErr := agg.Close()
	j.meta = meta
	j.tables.WriteString(agg.String())
	for _, e := range agg.Failures() {
		j.failures = append(j.failures, e.Error())
	}
	if runErr != nil {
		return runErr
	}
	return closeErr
}

// Status snapshots the job for polling.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.name,
		Kind:      j.kind,
		State:     j.state,
		Submitted: j.submitted,
		Variants:  j.variants,
		Windows:   j.nextSeq,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state.Terminal() {
		if j.runErr != nil {
			st.Error = j.runErr.Error()
		}
		meta := j.meta
		st.Meta = &meta
		st.Failures = append([]string(nil), j.failures...)
	}
	return st
}

// Meta returns the job's run-metadata envelope.
func (j *Job) Meta() MetaEnvelope {
	st := j.Status()
	env := MetaEnvelope{
		Job:       st.ID,
		Name:      st.Name,
		Kind:      st.Kind,
		State:     st.State,
		Submitted: st.Submitted,
		Started:   st.Started,
		Finished:  st.Finished,
	}
	if st.Meta != nil {
		env.Meta = *st.Meta
		env.ScenariosPerSecond = st.Meta.ScenariosPerSecond()
	}
	return env
}

// result exposes one of the job's result buffers, picked by buf, once the
// job is terminal.
func (j *Job) result(buf func(*Job) *bytes.Buffer) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, false
	}
	return buf(j).Bytes(), true
}

// snapshotFrom copies the retained windows with sequence >= from and
// reports whether more may come. Streamers call it in a loop, waiting on
// the returned channel between calls.
func (j *Job) snapshotFrom(from int) (batch []MetricWindow, next int, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < j.firstSeq {
		from = j.firstSeq
	}
	for i := from - j.firstSeq; i < len(j.windows); i++ {
		batch = append(batch, j.windows[i])
	}
	return batch, from + len(batch), j.state.Terminal(), waitOn(&j.windowsReady)
}

// snapshotSpansFrom is snapshotFrom over the span log; the view needs no
// lock to decode.
func (j *Job) snapshotSpansFrom(from int) (batch spanView, next int, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	batch, next = j.spans.view(from)
	return batch, next, j.state.Terminal(), waitOn(&j.spansReady)
}

// audit exposes a finished scenario job's MAPE audit trail.
func (j *Job) audit() (trail []autonosql.AuditEntry, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() || j.trail == nil {
		return nil, false
	}
	return j.trail, true
}

// jobMetrics is one job's counters for the /metrics surface.
type jobMetrics struct {
	id       string
	kind     string
	state    State
	variants int
	windows  int
	spans    int
}

func (j *Job) metrics() jobMetrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobMetrics{
		id:       j.id,
		kind:     j.kind,
		state:    j.state,
		variants: j.variants,
		windows:  j.nextSeq,
		spans:    j.spans.next(),
	}
}
