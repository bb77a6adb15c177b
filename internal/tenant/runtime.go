package tenant

import (
	"errors"
	"time"

	"autonosql/internal/metrics"
	"autonosql/internal/obs"
	"autonosql/internal/sla"
	"autonosql/internal/store"
)

// Target is what a Runtime is pointed at: anything with the store's
// name-based Read/Write pair, like workload.Target, so a Runtime can be
// handed straight to a workload generator and can itself wrap a monitor's
// tagged view.
type Target = store.NamedTarget

// accountingTarget is a Target whose store runs the runtime's accounting,
// registered with Account, on each operation issued by Forward (see
// store.Store.IssueAs): the monitor's tagged view.
type accountingTarget interface {
	KeyID(name store.Key) store.KeyID
	KeyName(id store.KeyID) store.Key
	Forward(write bool, key store.KeyID, queued time.Duration, cb func(store.Result))
	Account(o store.ClientObserver) error
}

// selfAccounting runs the accounting around the callback itself, in a
// closure per operation, for a Target without a store: a test double or a
// benchmark probe.
type selfAccounting struct {
	*store.NameAdapter
	account store.ClientObserver
}

func (a *selfAccounting) Account(o store.ClientObserver) error { a.account = o; return nil }

func (a *selfAccounting) Forward(write bool, key store.KeyID, queued time.Duration, cb func(store.Result)) {
	issue := a.ReadID
	if write {
		issue = a.WriteID
	}
	issue(key, func(res store.Result) {
		res.Latency += queued
		a.account.ObserveClient(res)
		if cb != nil {
			cb(res)
		}
	})
}

// Signal is the per-tenant slice of a monitoring snapshot: one tenant's
// observed state over the last sampling interval, expressed against that
// tenant's own SLA class. The tenant-aware controller consumes the worst
// penalty-weighted Signal instead of the aggregate estimate.
type Signal struct {
	// Name identifies the tenant.
	Name string
	// Class is the tenant's SLA class.
	Class Class
	// SLA holds the clause bounds of the tenant's class.
	SLA sla.SLA
	// PenaltyPerMinute is the violation price, used as the weight when
	// ranking tenants by urgency.
	PenaltyPerMinute float64

	// WindowP95 is the tenant's ground-truth p95 inconsistency window over
	// recent writes, in seconds.
	WindowP95 float64
	// ReadLatencyP99 and WriteLatencyP99 are the tenant's client-observed
	// latency percentiles over the interval, in seconds.
	ReadLatencyP99  float64
	WriteLatencyP99 float64
	// ErrorRate is the fraction of the tenant's operations that failed in
	// the interval. Operations shed by admission control count as failures:
	// a throttled tenant pays its own SLA's availability clause for the
	// protection the throttle buys everyone else.
	ErrorRate float64
	// OfferedOpsPerSec is the tenant's observed operation rate over the
	// interval, including shed arrivals.
	OfferedOpsPerSec float64

	// Throttled reports whether admission control is active on the tenant.
	// The analyzer never lets a throttled tenant drive the control loop: its
	// distress is the controller's own doing and already priced in.
	Throttled bool
	// ThrottleRate is the admitted rate in ops/s while throttled.
	ThrottleRate float64
	// ShedOpsPerSec is the rate at which the tenant's arrivals were shed by
	// admission control over the interval.
	ShedOpsPerSec float64
	// QueueDepth is the number of arrivals waiting in the delay-mode
	// admission queue at sampling time (always zero in shed mode).
	QueueDepth int
}

// observation converts the signal into the tenant's SLA observation.
func (s Signal) observation(at, interval time.Duration) sla.Observation {
	return sla.Observation{
		At:              at,
		Interval:        interval,
		WindowP95:       s.WindowP95,
		ReadLatencyP99:  s.ReadLatencyP99,
		WriteLatencyP99: s.WriteLatencyP99,
		ErrorRate:       s.ErrorRate,
	}
}

// Headroom returns the observed/limit ratio of the signal against the
// tenant's own SLA class.
func (s Signal) Headroom() sla.Headroom {
	return s.SLA.Headroom(s.observation(0, time.Second))
}

// InViolation reports whether any clause of the tenant's SLA is currently
// violated by the signal.
func (s Signal) InViolation() bool {
	return !s.SLA.Satisfied(s.observation(0, time.Second))
}

// Urgency is the penalty-weighted badness of the signal: the worst
// observed/limit ratio across the tenant's clauses, scaled by the violation
// price of the tenant's class. The analyzer drives the control loop from the
// tenant with the highest urgency.
func (s Signal) Urgency() float64 {
	w := s.PenaltyPerMinute
	if w <= 0 {
		w = 0.01
	}
	return w * s.Headroom().MaxRatio()
}

// Runtime is one tenant's client-side assembly inside a running scenario. It
// sits between the tenant's workload generator and the (monitor-tagged)
// store target: every operation flows through it, so it can keep the
// tenant's windowed client-observed latencies and interval error counts, and
// fold per-tenant SLA compliance into the tenant's own tracker.
type Runtime struct {
	id    store.TenantID
	name  string
	class ClassSpec

	inner   accountingTarget
	tracker *sla.Tracker

	readLat  *metrics.WindowedStat
	writeLat *metrics.WindowedStat

	opsInterval  uint64
	errsInterval uint64

	// Admission control (nil clock = never installed). The limiter sits in
	// front of inner: a shed operation is rejected synchronously, counted as
	// a failure in the tenant's own accounting, and never reaches the store.
	limiter Limiter
	clock   func() time.Duration
	onShed  func(write bool)

	shedInterval uint64
	shedTotal    uint64

	// Delay-mode admission (nil after = shed mode). Arrivals that fail
	// admission queue here instead of being rejected; a drain scheduled via
	// after forwards them as tokens refill, folding the queueing delay into
	// each operation's observed latency. Overflow past delayQueueCap falls
	// back to shedding.
	delayMode     bool
	after         func(time.Duration, func())
	queue         []delayedOp
	drainArmed    bool
	delayedTotal  uint64
	maxQueueDepth int

	// tracer, when set, fronts the store's operation tracer: every arrival
	// passes the sampler here (with the tenant's name attached) so
	// admission-control outcomes — shed, delay-queue wait, release — appear
	// in the span tree, and the sampling decision is staged for the store to
	// adopt instead of re-sampling. traceClock supplies the virtual time for
	// runtime-side spans.
	tracer     *obs.Tracer
	traceClock func() time.Duration
}

// delayQueueCap bounds the delay-mode admission queue: a tenant whose burst
// outruns its admitted rate by more than this many operations sheds the
// overflow, so a sustained overload cannot buffer unboundedly.
const delayQueueCap = 4096

// delayedOp is one arrival waiting in the delay-mode admission queue.
type delayedOp struct {
	write bool
	key   store.KeyID
	cb    func(store.Result)
	// at is the arrival's original virtual time; the queueing delay
	// (forward time minus at) is added to the operation's observed latency.
	at time.Duration
	// trace is the arrival's sampled span tree, nil when unsampled.
	trace *obs.OpTrace
}

// NewRuntime creates the runtime for one tenant and registers its
// accounting with the inner target, where operations are forwarded
// (typically the monitor's tagged view of the store).
func NewRuntime(id store.TenantID, name string, class Class, inner Target) (*Runtime, error) {
	if id <= 0 {
		return nil, errors.New("tenant: id must be positive")
	}
	if name == "" {
		return nil, errors.New("tenant: name is required")
	}
	if !class.Valid() {
		return nil, errors.New("tenant: unknown class " + string(class))
	}
	if inner == nil {
		return nil, errors.New("tenant: target is required")
	}
	at, ok := inner.(accountingTarget)
	if !ok {
		at = &selfAccounting{NameAdapter: store.AdaptNames(inner)}
	}
	spec := class.Spec()
	r := &Runtime{
		id:       id,
		name:     name,
		class:    spec,
		inner:    at,
		tracker:  sla.NewTracker(spec.SLA),
		readLat:  metrics.NewWindowedStat(2048),
		writeLat: metrics.NewWindowedStat(2048),
	}
	if err := r.inner.Account(r); err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the tenant's store tag.
func (r *Runtime) ID() store.TenantID { return r.id }

// Name returns the tenant's name.
func (r *Runtime) Name() string { return r.name }

// Class returns the tenant's SLA class agreement.
func (r *Runtime) Class() ClassSpec { return r.class }

// Tracker returns the tenant's SLA compliance tracker.
func (r *Runtime) Tracker() *sla.Tracker { return r.tracker }

// EnableAdmission installs admission-control plumbing on the runtime: clock
// supplies the virtual time token refills run on, and onShed (optional) is
// invoked for every shed operation so the store can count the rejection in
// the tenant's ground truth. The limiter starts disabled — traffic flows
// unchanged until Throttle is called.
func (r *Runtime) EnableAdmission(clock func() time.Duration, onShed func(write bool)) error {
	if clock == nil {
		return errors.New("tenant: admission clock is required")
	}
	r.clock = clock
	r.onShed = onShed
	return nil
}

// EnableDelayMode switches the runtime's admission control from shedding to
// queueing: arrivals that fail admission wait in a bounded queue and are
// forwarded as tokens refill, with the queueing delay folded into their
// observed latency. after schedules a callback on the simulation's event loop
// (typically sim.Engine.After); EnableAdmission must have been called first.
func (r *Runtime) EnableDelayMode(after func(time.Duration, func())) error {
	if r.clock == nil {
		return errors.New("tenant: admission control not enabled for " + r.name)
	}
	if after == nil {
		return errors.New("tenant: delay-mode scheduler is required")
	}
	r.delayMode = true
	r.after = after
	return nil
}

// SetTracer attaches the store's operation tracer to the runtime so sampling
// happens at arrival — before admission control — and the tenant's name rides
// on each sampled trace. clock supplies the virtual time for runtime-side
// spans and is required with a non-nil tracer.
func (r *Runtime) SetTracer(t *obs.Tracer, clock func() time.Duration) error {
	if t != nil && clock == nil {
		return errors.New("tenant: tracer clock is required")
	}
	r.tracer = t
	r.traceClock = clock
	return nil
}

// beginTrace offers one arrival to the sampler. Nil when unsampled or when
// tracing is off; only a sampled arrival has its key's name looked up.
func (r *Runtime) beginTrace(write bool, key store.KeyID) *obs.OpTrace {
	if r.tracer == nil {
		return nil
	}
	now := r.traceClock()
	tr := r.tracer.Begin(r.name, write, "", now)
	if tr != nil {
		tr.Key = string(r.inner.KeyName(key))
		tr.Add(now, "arrival", 0)
	}
	return tr
}

// Throttle activates (or re-rates) the tenant's admission limiter. It fails
// when EnableAdmission was never called.
func (r *Runtime) Throttle(opsPerSec float64) error {
	if r.clock == nil {
		return errors.New("tenant: admission control not enabled for " + r.name)
	}
	if opsPerSec <= 0 {
		return errors.New("tenant: throttle rate must be positive")
	}
	r.limiter.SetRate(opsPerSec, r.clock())
	return nil
}

// Unthrottle removes the tenant's admission limit. In delay mode any queued
// arrivals are released immediately: the limiter that held them back is gone.
func (r *Runtime) Unthrottle() error {
	if r.clock == nil {
		return errors.New("tenant: admission control not enabled for " + r.name)
	}
	r.limiter.Disable(r.clock())
	r.flushQueue()
	return nil
}

// Throttled returns the tenant's current admission rate and whether the
// limiter is active.
func (r *Runtime) Throttled() (float64, bool) {
	return r.limiter.Rate(), r.limiter.Enabled()
}

// ShedOps returns the cumulative number of operations shed by admission
// control.
func (r *Runtime) ShedOps() uint64 { return r.shedTotal }

// DelayedOps returns the cumulative number of operations queued by delay-mode
// admission control (always zero in shed mode).
func (r *Runtime) DelayedOps() uint64 { return r.delayedTotal }

// MaxQueueDepth returns the deepest the delay-mode admission queue got.
func (r *Runtime) MaxQueueDepth() int { return r.maxQueueDepth }

// QueueDepth returns the number of arrivals currently waiting in the
// delay-mode admission queue.
func (r *Runtime) QueueDepth() int { return len(r.queue) }

// ThrottleWindows returns the tenant's throttle timeline, with a still-open
// window closed at end.
func (r *Runtime) ThrottleWindows(end time.Duration) []ThrottleWindow {
	return r.limiter.Windows(end)
}

// ThrottledTime returns how long the tenant has been throttled in total.
func (r *Runtime) ThrottledTime(end time.Duration) time.Duration {
	return r.limiter.ThrottledTime(end)
}

// shed rejects one arrival that failed admission: the tenant's own error
// accounting sees a failure (the SLA availability clause prices the shed),
// the ground-truth hook records the rejection, and the caller gets an
// immediate ErrAdmissionShed result — the operation never reaches the store.
func (r *Runtime) shed(write bool, key store.KeyID, cb func(store.Result), tr *obs.OpTrace) {
	r.errsInterval++
	r.shedInterval++
	r.shedTotal++
	if tr != nil {
		at := r.traceClock()
		tr.AddNote(at, "shed", 0, "admission")
		r.tracer.Finish(tr, at, ErrAdmissionShed.Error())
	}
	if r.onShed != nil {
		r.onShed(write)
	}
	if cb != nil {
		now := r.clock()
		kind := store.OpRead
		if write {
			kind = store.OpWrite
		}
		cb(store.Result{Kind: kind, ID: key, Err: ErrAdmissionShed, IssuedAt: now, CompletedAt: now})
	}
}

// forward sends one admitted operation to the inner target. queued is the
// time the operation spent in the delay-mode admission queue (zero for
// directly admitted arrivals); the store adds it to the client-observed
// latency, because the client has been waiting since the original arrival.
func (r *Runtime) forward(write bool, key store.KeyID, cb func(store.Result), queued time.Duration, tr *obs.OpTrace) {
	// The sampling decision made at arrival is staged — trace or nil — so
	// the store adopts it instead of running its own sampler; the inner call
	// chain is synchronous down to the store, which consumes the stage.
	if r.tracer != nil {
		phase := "admit"
		if queued > 0 {
			phase = "delay-release"
		}
		tr.Add(r.traceClock(), phase, 0)
		r.tracer.Stage(tr)
	}
	r.inner.Forward(write, key, queued, cb)
}

// ObserveClient records the outcome of one of the tenant's operations, the
// admission-queue wait included in its latency.
func (r *Runtime) ObserveClient(res store.Result) {
	switch {
	case res.Err != nil:
		r.errsInterval++
	case res.Kind == store.OpWrite:
		r.writeLat.Observe(res.Latency.Seconds())
	default:
		r.readLat.Observe(res.Latency.Seconds())
	}
}

// enqueue places one arrival that failed admission into the delay queue and
// arms the drain. It reports false when the queue is full, in which case the
// caller sheds the arrival instead.
func (r *Runtime) enqueue(write bool, key store.KeyID, cb func(store.Result), tr *obs.OpTrace) bool {
	if len(r.queue) >= delayQueueCap {
		return false
	}
	if tr != nil {
		tr.Add(r.clock(), "delay-enqueue", 0)
	}
	r.queue = append(r.queue, delayedOp{write: write, key: key, cb: cb, at: r.clock(), trace: tr})
	r.delayedTotal++
	if len(r.queue) > r.maxQueueDepth {
		r.maxQueueDepth = len(r.queue)
	}
	r.armDrain()
	return true
}

// armDrain schedules the next queue drain for when the limiter will next hold
// a full token. At most one drain is in flight at a time.
func (r *Runtime) armDrain() {
	if r.drainArmed || len(r.queue) == 0 {
		return
	}
	wait := r.limiter.NextTokenWait(r.clock())
	if wait < time.Nanosecond {
		wait = time.Nanosecond
	}
	r.drainArmed = true
	r.after(wait, r.drain)
}

// drain forwards queued arrivals for as long as the limiter admits them, then
// re-arms itself for the next token if any are still waiting.
func (r *Runtime) drain() {
	r.drainArmed = false
	now := r.clock()
	for len(r.queue) > 0 {
		if r.limiter.enabled && !r.limiter.Admit(now) {
			r.armDrain()
			return
		}
		op := r.queue[0]
		r.queue[0] = delayedOp{}
		r.queue = r.queue[1:]
		r.forward(op.write, op.key, op.cb, now-op.at, op.trace)
	}
	r.queue = nil
}

// flushQueue forwards everything still waiting in the delay queue, charging
// each operation the queueing delay it accrued so far.
func (r *Runtime) flushQueue() {
	if len(r.queue) == 0 {
		return
	}
	now := r.clock()
	queue := r.queue
	r.queue = nil
	for i, op := range queue {
		queue[i] = delayedOp{}
		r.forward(op.write, op.key, op.cb, now-op.at, op.trace)
	}
}

// Read and Write are ReadID and WriteID for a key given by name.
func (r *Runtime) Read(key store.Key, cb func(store.Result))  { r.ReadID(r.inner.KeyID(key), cb) }
func (r *Runtime) Write(key store.Key, cb func(store.Result)) { r.WriteID(r.inner.KeyID(key), cb) }

// ReadID and WriteID issue one of the tenant's reads or writes.
func (r *Runtime) ReadID(key store.KeyID, cb func(store.Result))  { r.issue(false, key, cb) }
func (r *Runtime) WriteID(key store.KeyID, cb func(store.Result)) { r.issue(true, key, cb) }

// issue forwards one operation. Arrivals that fail admission control are
// queued (delay mode) or shed before they reach the store.
func (r *Runtime) issue(write bool, key store.KeyID, cb func(store.Result)) {
	r.opsInterval++
	tr := r.beginTrace(write, key)
	if r.limiter.enabled && !r.limiter.Admit(r.clock()) {
		if r.delayMode && r.enqueue(write, key, cb, tr) {
			return
		}
		r.shed(write, key, cb, tr)
		return
	}
	r.forward(write, key, cb, 0, tr)
}

// Observe folds one sampling interval into the tenant's SLA tracker and
// returns the tenant's Signal for the interval. windowP95 is the tenant's
// ground-truth p95 inconsistency window in seconds (supplied by the store's
// per-tenant tracking); the latencies and error rate come from the runtime's
// own client-side accounting. The interval accumulators reset on return.
func (r *Runtime) Observe(at, interval time.Duration, windowP95 float64) Signal {
	sig := Signal{
		Name:             r.name,
		Class:            r.class.Class,
		SLA:              r.class.SLA,
		PenaltyPerMinute: r.class.PenaltyPerMinute,
		WindowP95:        windowP95,
		ReadLatencyP99:   r.readLat.Quantile(0.99),
		WriteLatencyP99:  r.writeLat.Quantile(0.99),
	}
	if r.opsInterval > 0 {
		sig.ErrorRate = float64(r.errsInterval) / float64(r.opsInterval)
	}
	if interval > 0 {
		sig.OfferedOpsPerSec = float64(r.opsInterval) / interval.Seconds()
		sig.ShedOpsPerSec = float64(r.shedInterval) / interval.Seconds()
	}
	sig.ThrottleRate, sig.Throttled = r.Throttled()
	sig.QueueDepth = len(r.queue)
	r.opsInterval = 0
	r.errsInterval = 0
	r.shedInterval = 0
	r.tracker.Observe(sig.observation(at, interval))
	return sig
}

// Summary is the tenant's final compliance-and-cost accounting for a run.
type Summary struct {
	Name  string
	Class Class
	// Compliance is the tenant's SLA tracker summary.
	Compliance sla.Summary
	// Penalty prices the tenant's violation minutes at the class rate.
	Penalty float64
}

// Summarize prices the tenant's accumulated compliance record.
func (r *Runtime) Summarize() Summary {
	sum := r.tracker.Summary()
	return Summary{
		Name:       r.name,
		Class:      r.class.Class,
		Compliance: sum,
		Penalty:    sum.TotalViolationTime.Minutes() * r.class.PenaltyPerMinute,
	}
}
