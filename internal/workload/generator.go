package workload

import (
	"errors"
	"math/rand"
	"time"

	"autonosql/internal/metrics"
	"autonosql/internal/sim"
	"autonosql/internal/store"
)

// Mix describes the read/write composition of a workload.
type Mix struct {
	// ReadFraction is the fraction of operations that are reads, in [0, 1].
	ReadFraction float64
}

// Target is what a traffic source is pointed at: anything with the store's
// name-based Read/Write pair. *store.Store, the monitor and the tenant
// runtimes satisfy it, and so does a test double that only knows names.
type Target = store.NamedTarget

// IDTarget is the subset of the store API a traffic source actually drives:
// operations by key id. The store, the monitor, its tagged views and the
// tenant runtimes implement it; byID adapts a Target that does not.
type IDTarget interface {
	ReadID(key store.KeyID, cb func(store.Result))
	WriteID(key store.KeyID, cb func(store.Result))
}

func byID(t Target) IDTarget {
	if it, ok := t.(IDTarget); ok {
		return it
	}
	return store.AdaptNames(t)
}

// Stats summarises the traffic a generator has produced and the outcomes it
// observed from the client side. Client-observed latencies are the store's
// to record (store.Stats); the generator only counts.
type Stats struct {
	ReadsIssued   uint64
	WritesIssued  uint64
	ReadErrors    uint64
	WriteErrors   uint64
	StaleReads    uint64
	LastIssueRate float64
}

// Config configures a Generator.
type Config struct {
	// Profile drives the offered rate over time.
	Profile LoadProfile
	// Mix is the read/write split.
	Mix Mix
	// Keys selects keys per operation.
	Keys KeyChooser
	// Until stops the generator at this virtual time (0 = run until Stop).
	Until time.Duration
	// ArrivalStream names the random stream the inter-arrival draws come
	// from; it defaults to "arrivals". Scenarios hosting several generators
	// (one per tenant) must give each its own name, or every generator would
	// replay the same arrival sequence.
	ArrivalStream string
}

// Generator issues open-loop Poisson traffic against a Target.
type Generator struct {
	cfg    Config
	engine *sim.Engine
	target IDTarget
	rng    *sim.RandSource

	stopped      bool
	readsIssued  metrics.Counter
	writesIssued metrics.Counter
	readErrors   metrics.Counter
	writeErrors  metrics.Counter
	staleReads   metrics.Counter
	lastRate     float64

	// arrivals is the dedicated inter-arrival random stream, bound at Start.
	arrivals *rand.Rand
	// tickFn, onReadFn and onWriteFn are the per-arrival handlers, bound once
	// so the open-loop arrival chain does not allocate a closure per
	// operation.
	tickFn    sim.Handler
	onReadFn  func(store.Result)
	onWriteFn func(store.Result)
}

// NewGenerator creates a generator. Start must be called to begin issuing
// traffic.
func NewGenerator(cfg Config, engine *sim.Engine, target Target, rnd *sim.RandSource) (*Generator, error) {
	if engine == nil || target == nil || rnd == nil {
		return nil, errors.New("workload: engine, target and rand source are required")
	}
	if cfg.Profile == nil {
		return nil, errors.New("workload: load profile is required")
	}
	if cfg.Keys == nil {
		return nil, errors.New("workload: key chooser is required")
	}
	if cfg.Mix.ReadFraction < 0 || cfg.Mix.ReadFraction > 1 {
		return nil, errors.New("workload: read fraction must be within [0, 1]")
	}
	g := &Generator{
		cfg:    cfg,
		engine: engine,
		target: byID(target),
		rng:    rnd,
	}
	g.tickFn = g.tick
	g.onReadFn = g.onRead
	g.onWriteFn = g.onWrite
	return g, nil
}

// Intercept replaces the generator's target with wrap(target). Trace
// recording uses it to splice a recorder between the generator and the system
// under test. It must be called before Start.
func (g *Generator) Intercept(wrap func(IDTarget) IDTarget) {
	g.target = wrap(g.target)
}

// Start schedules the first arrival.
func (g *Generator) Start() {
	name := g.cfg.ArrivalStream
	if name == "" {
		name = "arrivals"
	}
	g.arrivals = g.rng.Stream(name)
	g.scheduleNext()
}

func (g *Generator) scheduleNext() {
	now := g.engine.Now()
	if g.stopped {
		return
	}
	if g.cfg.Until > 0 && now >= g.cfg.Until {
		return
	}
	rate := g.cfg.Profile.Rate(now)
	g.lastRate = rate
	var gap time.Duration
	if rate <= 0 {
		// Idle period: re-evaluate the profile shortly.
		gap = 100 * time.Millisecond
	} else {
		gap = time.Duration(sim.Exponential(g.arrivals, float64(time.Second)/rate))
		if gap <= 0 {
			gap = time.Microsecond
		}
		if gap > 10*time.Second {
			gap = 10 * time.Second
		}
	}
	g.engine.After(gap, g.tickFn)
}

// tick fires one arrival: issue an operation at the rate captured when the
// arrival was scheduled (zero-rate ticks only re-evaluate the profile), then
// schedule the next arrival.
func (g *Generator) tick(time.Duration) {
	if g.stopped {
		return
	}
	if g.lastRate > 0 {
		g.issueOne(g.arrivals)
	}
	g.scheduleNext()
}

func (g *Generator) issueOne(rng *rand.Rand) {
	if rng.Float64() < g.cfg.Mix.ReadFraction {
		key := g.cfg.Keys.NextReadID()
		g.readsIssued.Inc()
		g.target.ReadID(key, g.onReadFn)
		return
	}
	key := g.cfg.Keys.NextWriteID()
	g.writesIssued.Inc()
	g.target.WriteID(key, g.onWriteFn)
}

func (g *Generator) onRead(r store.Result) {
	if r.Err != nil {
		g.readErrors.Inc()
		return
	}
	if r.Stale {
		g.staleReads.Inc()
	}
}

func (g *Generator) onWrite(r store.Result) {
	if r.Err != nil {
		g.writeErrors.Inc()
	}
}

// Stop halts further arrivals. In-flight operations still complete.
func (g *Generator) Stop() { g.stopped = true }

// Stats returns the generator's client-side statistics.
func (g *Generator) Stats() Stats {
	return Stats{
		ReadsIssued:   g.readsIssued.Value(),
		WritesIssued:  g.writesIssued.Value(),
		ReadErrors:    g.readErrors.Value(),
		WriteErrors:   g.writeErrors.Value(),
		StaleReads:    g.staleReads.Value(),
		LastIssueRate: g.lastRate,
	}
}
