// Package obs is the deterministic observability layer: sampled causal
// op traces, stamped exclusively with virtual time and counter-derived
// identifiers, so two runs of the same scenario — whatever the goroutine
// schedule — export byte-identical spans.
//
// The package is a leaf: it imports nothing from the rest of the module, so
// the simulation engine, the store, the tenant runtimes and the controller
// can all depend on it without cycles. Tracing is strictly opt-in: a nil
// *Tracer (the default) keeps every instrumented hot path on its existing
// 1-allocation-per-op budget, and a nil *OpTrace makes every span method a
// no-op, so call sites guard with a single pointer test.
package obs

import "time"

// SpanEvent is one phase marker inside an operation's causal span tree:
// virtual timestamp, phase name, and (when a specific replica is involved)
// the cluster node id.
type SpanEvent struct {
	At    time.Duration `json:"at"`
	Phase string        `json:"phase"`
	Node  int           `json:"node,omitempty"`
	Note  string        `json:"note,omitempty"`
}

// OpTrace is the sampled causal trace of one operation, from arrival through
// admission, coordination, per-replica fan-out and quorum to the final SLA
// accounting. IDs are allocated from the tracer's own counter in op-arrival
// order, never from wall clocks or RNGs, so the same simulation always
// produces the same ids.
type OpTrace struct {
	ID     uint64        `json:"id"`
	Tenant string        `json:"tenant,omitempty"`
	Write  bool          `json:"write"`
	Key    string        `json:"key"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Err    string        `json:"err,omitempty"`
	Done   bool          `json:"done"`
	Events []SpanEvent   `json:"events"`
}

// Add appends a phase marker. It is safe on a nil receiver so unsampled
// operations cost one pointer test per call site.
func (tr *OpTrace) Add(at time.Duration, phase string, node int) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, SpanEvent{At: at, Phase: phase, Node: node})
}

// AddNote is Add with a free-form annotation.
func (tr *OpTrace) AddNote(at time.Duration, phase string, node int, note string) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, SpanEvent{At: at, Phase: phase, Node: node, Note: note})
}

// Tracer decides which operations get a trace and owns the retained trace
// list. Sampling is a plain every-Nth counter over arrivals — deterministic
// by construction — and all state is single-goroutine (the simulation's),
// so no locking appears on the hot path.
type Tracer struct {
	every int
	limit int

	seen    uint64 // operations offered to Begin
	nextID  uint64 // sampled operations == allocated trace ids
	dropped uint64 // sampled traces evicted by the retention cap

	// staged hands a trace from the admission layer (tenant runtime) to the
	// store within one synchronous call chain. hasStaged distinguishes "the
	// runtime fronted this op but did not sample it" from "nobody fronted
	// it", so the store neither double-counts arrivals nor re-samples.
	staged    *OpTrace
	hasStaged bool

	traces []*OpTrace
	sink   func(*OpTrace)
}

// NewTracer creates a tracer sampling every Nth operation (every < 1 is
// treated as 1 — trace everything) and retaining at most limit traces
// (0 = unbounded).
func NewTracer(every, limit int) *Tracer {
	if every < 1 {
		every = 1
	}
	return &Tracer{every: every, limit: limit}
}

// SetSink installs a callback invoked whenever a trace finishes. The sink
// runs on the simulation goroutine; it must not block on simulation work.
func (t *Tracer) SetSink(fn func(*OpTrace)) { t.sink = fn }

// Begin offers one arriving operation to the sampler and returns its trace,
// or nil when the op is not elected. The first op is always sampled, then
// every Nth after it.
func (t *Tracer) Begin(tenant string, write bool, key string, now time.Duration) *OpTrace {
	t.seen++
	if (t.seen-1)%uint64(t.every) != 0 {
		return nil
	}
	t.nextID++
	tr := &OpTrace{ID: t.nextID, Tenant: tenant, Write: write, Key: key, Start: now}
	t.traces = append(t.traces, tr)
	if t.limit > 0 && len(t.traces) > t.limit {
		// Slide past the oldest trace. When the array's tail runs out,
		// append moves the retained traces to a new array with room to
		// spare, so eviction costs O(1) amortised.
		t.traces[0] = nil
		t.traces = t.traces[1:]
		t.dropped++
	}
	return tr
}

// Stage parks a trace (possibly nil, for an op the sampler skipped) for the
// next layer of the same synchronous call chain to take over with Handoff.
func (t *Tracer) Stage(tr *OpTrace) {
	t.staged = tr
	t.hasStaged = true
}

// Handoff consumes a staged trace. ok reports whether a Stage call fronted
// the current operation at all; when false the callee should Begin its own
// trace.
func (t *Tracer) Handoff() (tr *OpTrace, ok bool) {
	if !t.hasStaged {
		return nil, false
	}
	tr = t.staged
	t.staged = nil
	t.hasStaged = false
	return tr, true
}

// Finish stamps a trace's end and outcome exactly once and feeds it to the
// sink. Safe on nil traces.
func (t *Tracer) Finish(tr *OpTrace, now time.Duration, errStr string) {
	if tr == nil || tr.Done {
		return
	}
	tr.End = now
	tr.Err = errStr
	tr.Done = true
	if t.sink != nil {
		t.sink(tr)
	}
}

// Traces returns the retained traces in sampling order. The slice is the
// tracer's own; callers must not mutate it.
func (t *Tracer) Traces() []*OpTrace { return t.traces }

// Seen returns how many operations were offered to the sampler.
func (t *Tracer) Seen() uint64 { return t.seen }

// Sampled returns how many operations were elected for tracing.
func (t *Tracer) Sampled() uint64 { return t.nextID }

// Dropped returns how many sampled traces the retention cap evicted.
func (t *Tracer) Dropped() uint64 { return t.dropped }
