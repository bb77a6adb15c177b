package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"autonosql"
)

// Options configures a Server.
type Options struct {
	// RetainWindows bounds the metric windows each job keeps for stream
	// replay, and separately the op-trace spans it keeps for span replay;
	// older entries fall off the front (streamers resume from the oldest
	// retained sequence). Zero keeps everything.
	RetainWindows int
}

// Server owns the job registry and the HTTP API. Wire its Handler into an
// http.Server; watch ShutdownRequested to honour POST /api/shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int

	shutdownOnce sync.Once
	shutdown     chan struct{}
}

// NewServer creates a Server with an empty job registry.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*Job),
		shutdown: make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /api/jobs/{id}/start", s.handleLifecycle((*Job).Start))
	s.mux.HandleFunc("POST /api/jobs/{id}/pause", s.handleLifecycle((*Job).Pause))
	s.mux.HandleFunc("POST /api/jobs/{id}/resume", s.handleLifecycle((*Job).Resume))
	s.mux.HandleFunc("POST /api/jobs/{id}/cancel", s.handleLifecycle((*Job).Cancel))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /api/jobs/{id}/spans", s.handleSpans)
	s.mux.HandleFunc("GET /api/jobs/{id}/audit", s.handleAudit)
	s.mux.HandleFunc("GET /api/jobs/{id}/report", s.handleResult("application/json", false, func(j *Job) *bytes.Buffer { return &j.reportJSON }))
	s.mux.HandleFunc("GET /api/jobs/{id}/report.csv", s.handleResult("text/csv", true, func(j *Job) *bytes.Buffer { return &j.csv }))
	s.mux.HandleFunc("GET /api/jobs/{id}/tenants.csv", s.handleResult("text/csv", true, func(j *Job) *bytes.Buffer { return &j.tenantsCSV }))
	s.mux.HandleFunc("GET /api/jobs/{id}/tables", s.handleResult("text/plain; charset=utf-8", false, func(j *Job) *bytes.Buffer { return &j.tables }))
	s.mux.HandleFunc("GET /api/jobs/{id}/meta", s.handleMeta)
	s.mux.HandleFunc("POST /api/shutdown", s.handleShutdown)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ShutdownRequested is closed when a client POSTs /api/shutdown.
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdown }

// JobRequest is the submission body for POST /api/jobs. Exactly one of
// Scenario or Suite describes the work; Kind is inferred when omitted.
// Scenario and Suite.Base decode onto DefaultScenarioSpec, so a submission
// states only what it overrides. Durations are nanosecond integers
// (time.Duration's JSON form).
type JobRequest struct {
	Kind string `json:"kind,omitempty"` // "scenario" or "suite"
	Name string `json:"name,omitempty"`
	// Scenario overrides DefaultScenarioSpec for a single-run job.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Suite describes a grid job.
	Suite *SuiteRequest `json:"suite,omitempty"`
	// Autostart starts the job on submission.
	Autostart bool `json:"autostart,omitempty"`
}

// SuiteRequest describes a suite job: a base spec (onto defaults) swept by
// a grid. The Traces axis is not submittable — recorded traces have no JSON
// form — and is rejected.
type SuiteRequest struct {
	Base                json.RawMessage `json:"base,omitempty"`
	Grid                json.RawMessage `json:"grid,omitempty"`
	Parallelism         int             `json:"parallelism,omitempty"`
	MaxViolationMinutes float64         `json:"max_violation_minutes,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": n})
}

// maxSubmitBytes bounds a submission body, so the decoder cannot be made to
// buffer whatever a client sends; the largest real specs are a few KiB.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decoding job request: %w", err))
		return
	}
	job, err := s.buildJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()
	if req.Autostart {
		if err := job.Start(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, job.Status())
}

// buildJob validates a submission and constructs the job — including the
// full suite expansion, so an invalid variant fails the submission rather
// than the run.
func (s *Server) buildJob(req *JobRequest) (*Job, error) {
	kind := req.Kind
	switch {
	case kind == "" && req.Suite != nil:
		kind = kindSuite
	case kind == "":
		kind = kindScenario
	}
	switch kind {
	case kindScenario:
		if req.Suite != nil {
			return nil, fmt.Errorf("scenario job carries a suite body")
		}
		spec := autonosql.DefaultScenarioSpec()
		if len(req.Scenario) > 0 {
			if err := decodeStrict(req.Scenario, &spec); err != nil {
				return nil, fmt.Errorf("decoding scenario spec: %w", err)
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		j := newJob(s.allocateID(), req.Name, kindScenario, s.opts.RetainWindows)
		j.spec = spec
		j.variants = 1
		return j, nil
	case kindSuite:
		if req.Suite == nil {
			return nil, fmt.Errorf("suite job without a suite body")
		}
		if len(req.Scenario) > 0 {
			return nil, fmt.Errorf("suite job carries a scenario body; put the base spec in suite.base")
		}
		base := autonosql.DefaultScenarioSpec()
		if len(req.Suite.Base) > 0 {
			if err := decodeStrict(req.Suite.Base, &base); err != nil {
				return nil, fmt.Errorf("decoding suite base spec: %w", err)
			}
		}
		var grid autonosql.Grid
		if len(req.Suite.Grid) > 0 {
			if err := decodeStrict(req.Suite.Grid, &grid); err != nil {
				return nil, fmt.Errorf("decoding suite grid: %w", err)
			}
		}
		if len(grid.Traces) > 0 {
			return nil, fmt.Errorf("the traces axis cannot be submitted over JSON: recorded traces are in-process values (record with suiterunner -record-trace and replay locally)")
		}
		j := newJob(s.allocateID(), req.Name, kindSuite, s.opts.RetainWindows)
		j.maxViolation = req.Suite.MaxViolationMinutes
		variants := autonosql.ExpandGrid(base, grid)
		for i := range variants {
			name := variants[i].Name
			variants[i].Configure = func(sc *autonosql.Scenario) error {
				if beforeVariant != nil {
					beforeVariant(j, name)
				}
				sc.OnSample(j.observe(name))
				sc.OnSpan(j.publishSpan(name)) // no-op unless Observe.TraceOps
				return nil
			}
		}
		suite, err := autonosql.NewSuite(autonosql.SuiteSpec{
			Variants:    variants,
			Parallelism: req.Suite.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		j.suite = suite
		j.variants = len(variants)
		return j, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want %q or %q)", kind, kindScenario, kindSuite)
	}
}

func (s *Server) allocateID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("job-%04d", s.nextID)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleLifecycle(op func(*Job) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		if err := op(j); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleStream replays the retained metric windows from the requested
// sequence (?from=N, default oldest retained) as JSON lines, then follows
// the live run — one line per closed sample window, flushed as it closes —
// until the job reaches a terminal state or the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	enc := json.NewEncoder(w)
	follow(w, r, func(from int) (int, bool, <-chan struct{}, error) {
		batch, next, terminal, wait := j.snapshotFrom(from)
		for _, mw := range batch {
			if err := enc.Encode(mw); err != nil {
				return next, terminal, wait, err
			}
		}
		return next, terminal, wait, nil
	})
}

// handleSpans replays the retained op-trace spans from the requested
// sequence (?from=N, default oldest retained) as JSON lines, then follows
// the live run until the job finishes or the client disconnects. Jobs
// submitted without Observe.TraceOps stream nothing and close at the
// terminal state.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	sw := newSpanWriter(w, j.id)
	follow(w, r, func(from int) (int, bool, <-chan struct{}, error) {
		batch, next, terminal, wait := j.snapshotSpansFrom(from)
		return next, terminal, wait, sw.write(&batch)
	})
}

// follow serves one of a job's sequenced JSON-lines streams from ?from=N.
// send writes the retained lines from a sequence on and returns the
// sequence after them, whether the job was terminal, and a channel that
// closes when more may come; follow flushes each batch and calls send again
// until the job is terminal, send fails (the client is gone) or the client
// disconnects.
func follow(w http.ResponseWriter, r *http.Request, send func(from int) (next int, terminal bool, wait <-chan struct{}, err error)) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from sequence %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first line
	}
	for {
		next, terminal, wait, err := send(from)
		if err != nil {
			return
		}
		if next > from && flusher != nil {
			flusher.Flush()
		}
		from = next
		if terminal {
			// One final snapshot raced nothing: terminal was read after the
			// batch, and lines only grow before the terminal transition.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}

// handleAudit serves a finished scenario job's MAPE decision audit trail.
// The trail is part of the report (Observe.Audit), so it follows the same
// results-only-after-terminal contract.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.kind != kindScenario {
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s is a %s job; the audit trail is a scenario surface", j.id, j.kind))
		return
	}
	trail, ok := j.audit()
	if !ok {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; the audit trail is available once it finishes", j.id, j.Status().State))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "audit": trail})
}

// handleMetrics serves a Prometheus text exposition of the daemon's state:
// job counts by state, plus per-job window, span and variant counters in
// submission order. Everything here is cheap to collect, so the endpoint is
// safe to scrape frequently.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	byState := map[State]int{}
	snaps := make([]jobMetrics, 0, len(jobs))
	for _, j := range jobs {
		m := j.metrics()
		byState[m.state]++
		snaps = append(snaps, m)
	}

	var b strings.Builder
	b.WriteString("# HELP autonosql_jobs Number of jobs in each lifecycle state.\n")
	b.WriteString("# TYPE autonosql_jobs gauge\n")
	for _, st := range []State{StatePending, StateRunning, StatePaused, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(&b, "autonosql_jobs{state=%q} %d\n", st, byState[st])
	}
	b.WriteString("# HELP autonosql_job_info Per-job kind and state (value is always 1).\n")
	b.WriteString("# TYPE autonosql_job_info gauge\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_info{job=%q,kind=%q,state=%q} 1\n", m.id, m.kind, m.state)
	}
	b.WriteString("# HELP autonosql_job_windows_total Metric windows published by each job.\n")
	b.WriteString("# TYPE autonosql_job_windows_total counter\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_windows_total{job=%q} %d\n", m.id, m.windows)
	}
	b.WriteString("# HELP autonosql_job_spans_total Op-trace spans published by each job.\n")
	b.WriteString("# TYPE autonosql_job_spans_total counter\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_spans_total{job=%q} %d\n", m.id, m.spans)
	}
	b.WriteString("# HELP autonosql_job_variants Scenario variants each job runs.\n")
	b.WriteString("# TYPE autonosql_job_variants gauge\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "autonosql_job_variants{job=%q} %d\n", m.id, m.variants)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// handleResult serves one of a finished job's result buffers, picked by buf.
// Results exist once the job is terminal (409 before); suiteOnly marks the
// CSV exports, which scenario jobs do not have (404).
func (s *Server) handleResult(contentType string, suiteOnly bool, buf func(*Job) *bytes.Buffer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		b, ok := j.result(buf)
		if !ok {
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; results are available once it finishes", j.id, j.Status().State))
			return
		}
		if suiteOnly && j.kind != kindSuite {
			httpError(w, http.StatusNotFound, fmt.Errorf("job %s is a %s job; CSV export is a suite surface", j.id, j.kind))
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Meta())
	}
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusAccepted, map[string]any{"shutting_down": true})
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

func decodeStrict(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
