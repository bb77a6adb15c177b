package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// TraceEvent is one recorded client arrival: the virtual time an operation
// entered the system, which tenant issued it, whether it was a write, and the
// key it targeted. Keys in the canonical "key-<i>" namespace are stored by
// index; anything else is carried verbatim in RawKey.
type TraceEvent struct {
	// At is the virtual arrival time.
	At time.Duration
	// Tenant names the issuing tenant; it is empty in single-workload traces.
	Tenant string
	// Write reports whether the operation was a write.
	Write bool
	// Key is the canonical key index ("key-<Key>"); ignored when RawKey is set.
	Key int
	// RawKey carries a key outside the canonical namespace verbatim.
	RawKey store.Key
}

// Trace is a recorded arrival stream: the tenant population it was captured
// from and every arrival in fire order (non-decreasing time). A trace decouples
// the arrivals from the random streams that produced them, so the exact same
// workload can be replayed against any controller configuration.
type Trace struct {
	// Tenants are the declared tenant names, in declaration order; empty for a
	// single anonymous workload.
	Tenants []string
	// Events are the arrivals in fire order.
	Events []TraceEvent
}

// Validate reports whether the trace is internally consistent: known tenants
// only, non-negative and non-decreasing times, and tenant tags present exactly
// when the trace declares tenants.
func (t *Trace) Validate() error {
	names := make(map[string]struct{}, len(t.Tenants))
	for i, n := range t.Tenants {
		if n == "" {
			return fmt.Errorf("workload: trace tenant %d has no name", i)
		}
		if _, dup := names[n]; dup {
			return fmt.Errorf("workload: duplicate trace tenant %q", n)
		}
		names[n] = struct{}{}
	}
	var last time.Duration
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("workload: trace event %d at negative time %v", i, e.At)
		}
		if e.At < last {
			return fmt.Errorf("workload: trace event %d out of order: %v after %v", i, e.At, last)
		}
		last = e.At
		if len(t.Tenants) == 0 {
			if e.Tenant != "" {
				return fmt.Errorf("workload: trace event %d names tenant %q but the trace declares no tenants", i, e.Tenant)
			}
		} else if _, ok := names[e.Tenant]; !ok {
			return fmt.Errorf("workload: trace event %d names unknown tenant %q", i, e.Tenant)
		}
		if e.RawKey == "" && e.Key < 0 {
			return fmt.Errorf("workload: trace event %d has negative key index %d", i, e.Key)
		}
	}
	return nil
}

// EventsFor returns the events of one tenant (or of the anonymous workload for
// the empty name), in fire order. The returned slice aliases the trace.
func (t *Trace) EventsFor(tenant string) []TraceEvent {
	if len(t.Tenants) == 0 && tenant == "" {
		return t.Events
	}
	var out []TraceEvent
	for _, e := range t.Events {
		if e.Tenant == tenant {
			out = append(out, e)
		}
	}
	return out
}

// Duration returns the time of the last event, or zero for an empty trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Scale returns a copy of the trace with every arrival time multiplied by
// factor: factor > 1 stretches the trace (lower arrival rate), factor < 1
// compresses it (higher rate). A factor of exactly 1 returns a bit-for-bit
// copy, so a 1.0-scaled replay stays byte-identical to the original. Scaled
// times are rounded to whole nanoseconds and clamped monotone, so the result
// always validates.
func (t *Trace) Scale(factor float64) (*Trace, error) {
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return nil, fmt.Errorf("workload: scale factor %v out of range (want finite > 0)", factor)
	}
	out := &Trace{
		Tenants: append([]string(nil), t.Tenants...),
		Events:  append([]TraceEvent(nil), t.Events...),
	}
	if factor == 1 {
		return out, nil
	}
	var last time.Duration
	for i := range out.Events {
		at := time.Duration(math.Round(float64(out.Events[i].At) * factor))
		if at < last {
			at = last
		}
		out.Events[i].At = at
		last = at
	}
	return out, nil
}

// --- JSON-lines wire format --------------------------------------------------

// The trace file format is JSON lines: a header object followed by one object
// per arrival, e.g.
//
//	{"v":1,"tenants":["gold","bronze"]}
//	{"t":1234567,"tn":"gold","op":"r","k":17}
//	{"t":2345678,"tn":"bronze","op":"w","k":10023}
//
// where t is the virtual arrival time in nanoseconds, op is "r" or "w" and k
// is the canonical key index ("key-<k>"). Non-canonical keys are carried as
// {"raw":"..."} instead of k. Single-workload traces omit "tenants" in the
// header and "tn" on every event.

type traceHeader struct {
	V       int      `json:"v"`
	Tenants []string `json:"tenants,omitempty"`
}

type traceLine struct {
	T   int64  `json:"t"`
	Tn  string `json:"tn,omitempty"`
	Op  string `json:"op"`
	K   *int   `json:"k,omitempty"`
	Raw string `json:"raw,omitempty"`
}

// traceFormatVersion is the wire format version ParseTrace accepts.
const traceFormatVersion = 1

// maxTraceLine bounds one line of a trace file; a line longer than this is a
// parse error, not an allocation storm.
const maxTraceLine = 1 << 20

// EncodeTrace writes the trace in the JSON-lines wire format.
func EncodeTrace(t *Trace, w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{V: traceFormatVersion, Tenants: t.Tenants}); err != nil {
		return fmt.Errorf("workload: encoding trace header: %w", err)
	}
	for i := range t.Events {
		e := &t.Events[i]
		line := traceLine{T: int64(e.At), Tn: e.Tenant}
		if e.Write {
			line.Op = "w"
		} else {
			line.Op = "r"
		}
		if e.RawKey != "" {
			line.Raw = string(e.RawKey)
		} else {
			k := e.Key
			line.K = &k
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("workload: encoding trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ParseTrace reads a trace in the JSON-lines wire format. Malformed JSON,
// unknown fields, unknown tenants, negative times, out-of-order events and
// bad opcodes are all errors; ParseTrace never panics on hostile input.
func ParseTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	t := &Trace{}
	names := make(map[string]struct{})
	headerSeen := false
	lineNo := 0
	var last time.Duration
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !headerSeen {
			var h traceHeader
			if err := strictUnmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad header: %w", lineNo, err)
			}
			if h.V != traceFormatVersion {
				return nil, fmt.Errorf("workload: trace line %d: unsupported version %d", lineNo, h.V)
			}
			for i, n := range h.Tenants {
				if n == "" {
					return nil, fmt.Errorf("workload: trace line %d: tenant %d has no name", lineNo, i)
				}
				if _, dup := names[n]; dup {
					return nil, fmt.Errorf("workload: trace line %d: duplicate tenant %q", lineNo, n)
				}
				names[n] = struct{}{}
			}
			t.Tenants = h.Tenants
			headerSeen = true
			continue
		}
		var line traceLine
		if err := strictUnmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
		}
		e := TraceEvent{At: time.Duration(line.T), Tenant: line.Tn}
		if e.At < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative time %d", lineNo, line.T)
		}
		if e.At < last {
			return nil, fmt.Errorf("workload: trace line %d: out of order: %v after %v", lineNo, e.At, last)
		}
		last = e.At
		switch line.Op {
		case "r":
		case "w":
			e.Write = true
		default:
			return nil, fmt.Errorf("workload: trace line %d: bad op %q (want \"r\" or \"w\")", lineNo, line.Op)
		}
		if len(t.Tenants) == 0 {
			if e.Tenant != "" {
				return nil, fmt.Errorf("workload: trace line %d: tenant %q in a trace that declares no tenants", lineNo, e.Tenant)
			}
		} else if _, ok := names[e.Tenant]; !ok {
			return nil, fmt.Errorf("workload: trace line %d: unknown tenant %q", lineNo, e.Tenant)
		}
		switch {
		case line.K != nil && line.Raw != "":
			return nil, fmt.Errorf("workload: trace line %d: both k and raw set", lineNo)
		case line.K != nil:
			if *line.K < 0 {
				return nil, fmt.Errorf("workload: trace line %d: negative key index %d", lineNo, *line.K)
			}
			e.Key = *line.K
		case line.Raw != "":
			e.RawKey = store.Key(line.Raw)
		default:
			return nil, fmt.Errorf("workload: trace line %d: no key (want k or raw)", lineNo)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if !headerSeen {
		return nil, errors.New("workload: trace has no header line")
	}
	return t, nil
}

// strictUnmarshal decodes one JSON object rejecting unknown fields and
// trailing garbage on the line.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON object")
	}
	return nil
}

// --- recording ---------------------------------------------------------------

// TraceRecorder captures the arrival stream of a running scenario. It wraps
// each generator's target with a pure pass-through that appends one TraceEvent
// per arrival before forwarding: no random draws, no scheduled events, so
// arming a recorder can never perturb the run it records.
type TraceRecorder struct {
	clock   func() time.Duration
	keyName func(store.KeyID) store.Key
	tenants []string
	events  []TraceEvent
}

// NewTraceRecorder creates a recorder. clock supplies the virtual time
// arrivals are stamped with; keyName names the keys outside the canonical
// namespace (the store's KeyName); tenants is the scenario's tenant
// population in declaration order (empty for a single anonymous workload).
func NewTraceRecorder(clock func() time.Duration, keyName func(store.KeyID) store.Key, tenants []string) (*TraceRecorder, error) {
	if clock == nil || keyName == nil {
		return nil, errors.New("workload: trace recorder needs a clock and a key namer")
	}
	return &TraceRecorder{clock: clock, keyName: keyName, tenants: tenants}, nil
}

// Wrap returns a target that records every arrival under the given tenant name
// (empty for the anonymous workload) before forwarding it to inner.
func (r *TraceRecorder) Wrap(tenant string, inner IDTarget) IDTarget {
	return &recordingTarget{rec: r, tenant: tenant, inner: inner}
}

// record appends one arrival. Arrivals flow in from event handlers in fire
// order, so the resulting event list is time-ordered by construction.
func (r *TraceRecorder) record(write bool, tenant string, key store.KeyID) {
	e := TraceEvent{At: r.clock(), Tenant: tenant, Write: write}
	if key >= 0 {
		e.Key = int(key)
	} else {
		e.RawKey = r.keyName(key)
	}
	r.events = append(r.events, e)
}

// Trace returns a snapshot of everything recorded so far.
func (r *TraceRecorder) Trace() *Trace {
	return &Trace{
		Tenants: append([]string(nil), r.tenants...),
		Events:  append([]TraceEvent(nil), r.events...),
	}
}

type recordingTarget struct {
	rec    *TraceRecorder
	tenant string
	inner  IDTarget
}

func (t *recordingTarget) ReadID(key store.KeyID, cb func(store.Result)) {
	t.rec.record(false, t.tenant, key)
	t.inner.ReadID(key, cb)
}

func (t *recordingTarget) WriteID(key store.KeyID, cb func(store.Result)) {
	t.rec.record(true, t.tenant, key)
	t.inner.WriteID(key, cb)
}

// --- replay ------------------------------------------------------------------

// TraceSource drives a Target from a recorded arrival stream instead of a
// Poisson generator: each event is issued at exactly its recorded virtual
// time. Scheduling is chained — the source holds at most one pending engine
// event and schedules the next arrival from the current one — which is the
// same discipline the live generator uses, so a replayed run reproduces the
// live run's event ordering exactly (see the replay byte-identity test).
type TraceSource struct {
	engine *sim.Engine
	target IDTarget
	events []TraceEvent
	// raw holds the ids of the events that carry a raw key, in event order.
	raw     []store.KeyID
	nextRaw int

	next    int
	stopped bool
	tickFn  sim.Handler
	cbFn    func(store.Result)
}

// NewTraceSource creates a source replaying events (already filtered to one
// tenant's stream, in fire order) against target. Raw keys are resolved to
// ids once here, through keyID (the store's KeyID), so ticks issue by id.
// Start must be called to begin issuing.
func NewTraceSource(engine *sim.Engine, target IDTarget, keyID func(store.Key) store.KeyID, events []TraceEvent) (*TraceSource, error) {
	if engine == nil || target == nil || keyID == nil {
		return nil, errors.New("workload: engine, target and key resolver are required")
	}
	s := &TraceSource{engine: engine, target: target, events: events}
	for i, e := range events {
		if i > 0 && e.At < events[i-1].At {
			return nil, fmt.Errorf("workload: trace source event %d out of order", i)
		}
		if e.RawKey != "" {
			s.raw = append(s.raw, keyID(e.RawKey))
		} else if e.Key < 0 {
			return nil, fmt.Errorf("workload: trace source event %d has negative key index %d", i, e.Key)
		}
	}
	s.tickFn = s.tick
	s.cbFn = func(store.Result) {}
	return s, nil
}

// Intercept replaces the source's target with wrap(target), mirroring
// Generator.Intercept so a replayed run can itself be recorded. It must be
// called before Start.
func (s *TraceSource) Intercept(wrap func(IDTarget) IDTarget) {
	s.target = wrap(s.target)
}

// Start schedules the first recorded arrival.
func (s *TraceSource) Start() { s.scheduleNext() }

// Stop halts further arrivals. In-flight operations still complete.
func (s *TraceSource) Stop() { s.stopped = true }

// Remaining returns how many recorded arrivals have not been issued yet.
func (s *TraceSource) Remaining() int { return len(s.events) - s.next }

func (s *TraceSource) scheduleNext() {
	if s.stopped || s.next >= len(s.events) {
		return
	}
	at := s.events[s.next].At
	now := s.engine.Now()
	if at < now {
		// Cannot happen for a validated trace (times are non-decreasing and
		// the previous event fired at its own time), but guard the engine's
		// negative-delay panic anyway.
		at = now
	}
	s.engine.After(at-now, s.tickFn)
}

// tick issues the due arrival and chains the next one, mirroring the live
// generator's issue-then-schedule order inside one event handler.
func (s *TraceSource) tick(time.Duration) {
	if s.stopped || s.next >= len(s.events) {
		return
	}
	e := s.events[s.next]
	s.next++
	key := store.KeyID(e.Key)
	if e.RawKey != "" {
		key = s.raw[s.nextRaw]
		s.nextRaw++
	}
	if e.Write {
		s.target.WriteID(key, s.cbFn)
	} else {
		s.target.ReadID(key, s.cbFn)
	}
	s.scheduleNext()
}
