package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"autonosql"
	"autonosql/internal/serve"
)

// daemonWorkload is daemon_jobs: an in-process serve.Server behind a loopback
// listener and one closed-loop client that submits a job, follows its metric
// stream to the end, then fetches the report and the op-trace spans. Every
// job simulates the same seed, so one in-process run of the spec checks them
// all.
type daemonWorkload struct {
	cfg runConfig

	httpSrv *http.Server
	served  chan error
	client  *http.Client
	base    string
	body    []byte // the submission every job POSTs

	// inprocWall is the median wall of Scenario.Run of the job spec with no
	// daemon around it: the floor serve.overhead_ms_p50 is measured from.
	inprocWall time.Duration
	inprocRep  *autonosql.Report

	windows     int // metric-window lines of the last job
	reportBytes int
}

// daemonBringUps is how many times the server is brought up and torn down to
// sample setup_s before the one the jobs run against. A bring-up is a few
// hundred microseconds of goroutine starts and loopback round trips, noisy
// one by one, so there are many.
const daemonBringUps = 96

// listen starts a server on a free loopback port.
func (w *daemonWorkload) listen() error {
	srv := serve.NewServer(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func(s *http.Server, done chan<- error) { done <- s.Serve(ln) }(w.httpSrv, w.served)
	w.base = "http://" + ln.Addr().String()
	resp, err := w.client.Get(w.base + "/healthz")
	if err != nil {
		return fmt.Errorf("probing the daemon: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// shutdown stops the current server and waits for its Serve goroutine.
func (w *daemonWorkload) shutdown() error {
	if w.httpSrv == nil {
		return nil
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.httpSrv.Shutdown(ctx)
	if serr := <-w.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	w.httpSrv = nil
	return err
}

func (w *daemonWorkload) prepare(env *runEnv) error {
	spec := daemonJobSpec(w.cfg.Seed, w.cfg.sizing())
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	w.body, err = json.Marshal(serve.JobRequest{Scenario: specJSON, Autostart: true})
	if err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{}}

	// The in-process floor, and the digest every job must reproduce.
	var walls []float64
	for i := 0; i < 5; i++ {
		sc, err := autonosql.NewScenario(spec)
		if err != nil {
			return err
		}
		start := time.Now()
		rep, err := sc.Run()
		if err != nil {
			return err
		}
		walls = append(walls, float64(time.Since(start)))
		w.inprocRep = rep
	}
	w.inprocWall = time.Duration(median(walls))
	env.reference = digestOf(w.inprocRep.Fingerprint())
	env.simOps = w.inprocRep.Reads + w.inprocRep.Writes

	runtime.GC()
	for i := 0; i <= daemonBringUps; i++ {
		id := env.tracer.begin(-1, 0, "listen")
		start := time.Now()
		if err := w.listen(); err != nil {
			return err
		}
		env.setups = append(env.setups, time.Since(start))
		env.tracer.end(id)
		if i < daemonBringUps {
			if err := w.shutdown(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *daemonWorkload) limits() (int, int, bool) {
	return 20, w.cfg.sizing().count(100, 20), false
}

func (w *daemonWorkload) countsSetup() bool { return false }
func (w *daemonWorkload) close() error      { return w.shutdown() }

func (w *daemonWorkload) newOp(int, *runEnv, bool) op { return &jobOp{w: w} }

// jobOp is one daemon job, submit to spans.
type jobOp struct {
	w      *daemonWorkload
	report []byte
}

func (o *jobOp) aux() bool                     { return false }
func (o *jobOp) setup(*tracer, int, int) error { return nil }

// get fetches a job sub-resource and returns its body.
func (o *jobOp) get(path string) ([]byte, error) {
	resp, err := o.w.client.Get(o.w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (o *jobOp) run(tr *tracer, trace, parent int) error {
	w := o.w
	id := tr.begin(trace, parent, "submit")
	resp, err := w.client.Post(w.base+"/api/jobs", "application/json", bytes.NewReader(w.body))
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("reading submission reply: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /api/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("decoding submission reply: %w", err)
	}
	job := "/api/jobs/" + st.ID

	id = tr.begin(trace, parent, "first_window")
	stream, err := w.client.Get(w.base + job + "/stream")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/stream: %s", job, stream.Status)
	}
	lines := 0
	rd := bufio.NewReader(stream.Body)
	for {
		_, err := rd.ReadSlice('\n')
		if err == nil {
			if lines == 0 {
				tr.end(id)
				id = tr.begin(trace, parent, "stream_eof")
			}
			lines++
			continue
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // a window line longer than the buffer: keep reading it
		}
		if err != io.EOF {
			return fmt.Errorf("following %s/stream: %w", job, err)
		}
		break
	}
	tr.end(id)
	w.windows = lines

	id = tr.begin(trace, parent, "report")
	o.report, err = o.get(job + "/report")
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(trace, parent, "spans")
	_, err = o.get(job + "/spans")
	tr.end(id)
	return err
}

func (o *jobOp) finish(*tracer, int, int) (outcome, error) {
	var rep autonosql.Report
	if err := json.Unmarshal(o.report, &rep); err != nil {
		return outcome{}, fmt.Errorf("decoding the daemon's report: %w", err)
	}
	o.w.reportBytes = len(o.report)
	want := o.w.inprocRep.Reads + o.w.inprocRep.Writes
	if got := rep.Reads + rep.Writes; got != want {
		return outcome{}, fmt.Errorf("daemon report has %d simulated ops, the in-process run of the same spec %d", got, want)
	}
	return outcome{SimOps: rep.Reads + rep.Writes, Digest: digestOf(rep.Fingerprint())}, nil
}

// sumPerTrace adds up, per harness operation, the durations (ms) of the
// spans with the given names.
func sumPerTrace(spans []span, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sums := map[int]float64{}
	var order []int
	for _, s := range spans {
		if !want[s.Name] || s.Trace < 0 {
			continue
		}
		if _, seen := sums[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += float64(s.duration()) / 1e6
	}
	out := make([]float64, 0, len(order))
	for _, t := range order {
		out = append(out, sums[t])
	}
	return out
}

func (w *daemonWorkload) layers(env *runEnv, samples []opSample) (map[string]float64, error) {
	m := map[string]float64{}
	var c counts
	c.add(w.inprocRep)
	c.into(m)
	m["report.json_bytes"] = float64(w.reportBytes)
	m["serve.report_bytes"] = float64(w.reportBytes)
	m["serve.windows_streamed"] = float64(w.windows)

	spans := env.tracer.all()
	m["serve.submit_ms_p50"] = median(spanMillis(spans, "submit"))
	m["serve.first_window_ms_p50"] = median(sumPerTrace(spans, "submit", "first_window"))
	m["serve.done_to_report_ms_p50"] = median(spanMillis(spans, "report"))
	m["scenario.run_ms"] = float64(w.inprocWall) / 1e6

	var jobs []float64
	for _, s := range primary(samples, false) {
		jobs = append(jobs, float64(s.Wall)/1e6)
	}
	m["serve.overhead_ms_p50"] = median(jobs) - float64(w.inprocWall)/1e6
	m["serve.job_ms_p90"] = percentile(jobs, 90)

	var scrapes []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := (&jobOp{w: w}).get("/metrics"); err != nil {
			return nil, err
		}
		scrapes = append(scrapes, float64(time.Since(start))/1e6)
	}
	m["serve.metrics_scrape_ms"] = median(scrapes)

	var err error
	m["obs.overhead_share"], err = observeOverhead(daemonJobSpec(w.cfg.Seed, w.cfg.sizing()))
	return m, err
}

func (w *daemonWorkload) shape() probeShape {
	return shapeOf(daemonJobSpec(w.cfg.Seed, w.cfg.sizing()))
}
