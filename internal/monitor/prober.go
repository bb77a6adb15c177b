package monitor

import (
	"errors"
	"strconv"
	"time"

	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// ProberConfig configures the active read-after-write prober.
type ProberConfig struct {
	// Rate is the number of probes started per second. Rates below one are
	// supported (e.g. 0.2 starts a probe every five seconds).
	Rate float64
	// PollInterval is the delay between successive reads of the probe key.
	PollInterval time.Duration
	// Timeout abandons a probe whose write never becomes visible; the
	// timeout value itself is recorded as a (censored) estimate so that
	// severe divergence is not silently dropped.
	Timeout time.Duration
}

// probeKeyPrefix namespaces probe keys away from application data.
const probeKeyPrefix = "__probe"

// Prober performs read-after-write probes against the store, the technique
// the paper proposes for artificially measuring consistency on a dummy
// table. Each probe writes a marker and polls until the marker is visible;
// the elapsed time from write acknowledgement to first consistent read is
// the window estimate.
type Prober struct {
	cfg        ProberConfig
	engine     *sim.Engine
	store      *store.Store
	onEstimate func(windowSeconds float64, opsUsed int)

	ticker *sim.Ticker
	seq    uint64
	// name is the reused buffer probe key names are spelled in; probes
	// recycles the probe records.
	name    []byte
	probes  sim.Pool[probe, *probe]
	started uint64
	done    uint64
	timeout uint64
	failed  uint64
}

// NewProber creates and starts a prober. onEstimate is invoked once per
// completed probe with the estimated window in seconds and the number of
// store operations the probe consumed. It takes a complete config: every
// field set, as Monitor does from its own.
func NewProber(cfg ProberConfig, engine *sim.Engine, st *store.Store, onEstimate func(float64, int)) (*Prober, error) {
	if engine == nil || st == nil || onEstimate == nil {
		return nil, errors.New("monitor: engine, store and estimate callback are required")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("monitor: probe rate must be positive")
	}
	p := &Prober{cfg: cfg, engine: engine, store: st, onEstimate: onEstimate}
	period := time.Duration(float64(time.Second) / cfg.Rate)
	if period <= 0 {
		period = time.Millisecond
	}
	t, err := sim.NewTicker(engine, period, func(time.Duration) { p.startProbe() })
	if err != nil {
		return nil, err
	}
	p.ticker = t
	return p, nil
}

// Stop halts the prober. Probes already in flight finish.
func (p *Prober) Stop() { p.ticker.Stop() }

// Started returns the number of probes started.
func (p *Prober) Started() uint64 { return p.started }

// Completed returns the number of probes that observed their write.
func (p *Prober) Completed() uint64 { return p.done }

// TimedOut returns the number of probes abandoned at the timeout.
func (p *Prober) TimedOut() uint64 { return p.timeout }

// Failed returns the number of probes whose write was rejected outright
// (unavailable or crashed coordinator, partition-starved consistency level).
func (p *Prober) Failed() uint64 { return p.failed }

func (p *Prober) startProbe() {
	p.seq++
	p.started++
	p.name = strconv.AppendUint(append(append(p.name[:0], probeKeyPrefix...), '-'), p.seq, 10)
	pr := p.probes.Get()
	if pr == nil {
		pr = p.probes.New()
		pr.p = p
		pr.onWrite, pr.onRead = pr.written, pr.read
	}
	pr.key = p.store.KeyID(store.Key(p.name))
	pr.ops = 1
	p.store.WriteID(pr.key, pr.onWrite)
}

// probe is one read-after-write probe in flight: its key, the version it
// waits for and the store operations it has used so far, behind handlers
// bound once, when the record is first made, and reused every time the
// record is.
type probe struct {
	p       *Prober
	next    *probe // the pool's free-list link
	key     store.KeyID
	want    uint64
	ackedAt time.Duration
	ops     int
	onWrite func(store.Result)
	onRead  func(store.Result)
}

// Link returns the probe's free-list link, for its sim.Pool.
func (pr *probe) Link() **probe { return &pr.next }

func (pr *probe) written(w store.Result) {
	if w.Err != nil {
		// A probe write rejected by a crashed or partitioned store is a
		// consistency signal, not a gap in the data: dropping it silently
		// would leave the monitor blind exactly when divergence is worst.
		// Record the probe as failed and feed the censored timeout value
		// into the estimate series, the same way an abandoned poll does.
		pr.p.failed++
		pr.finish(pr.p.cfg.Timeout.Seconds())
		return
	}
	pr.want, pr.ackedAt = w.Version, w.CompletedAt
	pr.poll()
}

// poll reads the probe key until the written version is visible.
func (pr *probe) poll() { pr.p.store.ReadID(pr.key, pr.onRead) }

// pollEvent re-polls the probe passed as its argument.
func pollEvent(arg any, _ time.Duration) { arg.(*probe).poll() }

func (pr *probe) read(r store.Result) {
	p := pr.p
	pr.ops++
	now := r.CompletedAt
	switch {
	case r.Err == nil && r.Version >= pr.want:
		p.done++
		pr.finish((now - pr.ackedAt).Seconds())
	case now-pr.ackedAt >= p.cfg.Timeout:
		p.timeout++
		pr.finish(p.cfg.Timeout.Seconds())
	default:
		p.engine.AfterArg(p.cfg.PollInterval, pollEvent, pr)
	}
}

// finish reports the probe's estimate and recycles the record.
func (pr *probe) finish(window float64) {
	p, ops := pr.p, pr.ops
	p.probes.Put(pr)
	p.onEstimate(window, ops)
}
