package autonosql

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"autonosql/internal/sim"
)

// SLATier is a named SLA strictness preset used as a suite axis: the whole
// SLASpec (clause bounds and prices) a variant runs under.
type SLATier struct {
	// Name identifies the tier in variant names and report rows.
	Name string
	// SLA is the agreement applied to variants on this tier.
	SLA SLASpec
}

// DefaultSLATiers returns the three presets the suite runner and CLI expose:
// tight (strict bounds, expensive violations), default (the bounds of
// DefaultScenarioSpec) and loose (bounds an eventually-consistent application
// that tolerates staleness would accept).
func DefaultSLATiers() []SLATier {
	def := DefaultScenarioSpec().SLA
	tight := def
	tight.MaxWindowP95 = 50 * time.Millisecond
	tight.MaxReadLatencyP99 = 15 * time.Millisecond
	tight.MaxWriteLatencyP99 = 20 * time.Millisecond
	tight.MaxErrorRate = 0.0005
	tight.ViolationPenaltyPerMinute = 2.00
	loose := def
	loose.MaxWindowP95 = time.Second
	loose.MaxReadLatencyP99 = 50 * time.Millisecond
	loose.MaxWriteLatencyP99 = 60 * time.Millisecond
	loose.MaxErrorRate = 0.01
	loose.ViolationPenaltyPerMinute = 0.50
	return []SLATier{
		{Name: "tight", SLA: tight},
		{Name: "default", SLA: def},
		{Name: "loose", SLA: loose},
	}
}

// LookupSLATier returns the default tier with the given name.
func LookupSLATier(name string) (SLATier, bool) {
	for _, t := range DefaultSLATiers() {
		if t.Name == name {
			return t, true
		}
	}
	return SLATier{}, false
}

// Grid is the axis grid of a suite. Each non-empty axis multiplies the
// number of variants; an empty axis keeps the base spec's value. The
// expansion order is fixed (pattern, controller, cluster size, SLA tier,
// fault profile, tenant mix, trace, seed offset), so a given grid always
// produces the same variants in the same order.
type Grid struct {
	// Patterns are the workload load shapes to sweep over.
	Patterns []LoadPattern
	// Controllers are the controller modes to sweep over.
	Controllers []ControllerMode
	// ClusterSizes are the initial cluster sizes to sweep over.
	ClusterSizes []int
	// SLATiers are the SLA presets to sweep over.
	SLATiers []SLATier
	// Faults are the fault profiles to sweep over (e.g. none vs crash vs
	// partition), so controllers can be compared under identical degraded
	// conditions.
	Faults []FaultProfile
	// TenantMixes are the tenant populations to sweep over (e.g. none vs a
	// gold+bronze pair), so controllers can be compared under identical
	// multi-tenant pressure.
	TenantMixes []TenantMix
	// Traces are recorded arrival streams to sweep over: each variant on a
	// trace replays those exact arrivals instead of generating fresh ones, so
	// every controller variant faces byte-identical client traffic. A trace's
	// tenant population must match the variant's tenant declarations.
	Traces []NamedTrace
	// Repeats runs every cell with that many different derived seeds
	// (0 and 1 both mean one run per cell).
	Repeats int
}

// Size returns the number of variants the grid expands to over a base spec.
func (g Grid) Size() int {
	n := 1
	for _, axis := range []int{len(g.Patterns), len(g.Controllers), len(g.ClusterSizes), len(g.SLATiers), len(g.Faults), len(g.TenantMixes), len(g.Traces)} {
		if axis > 0 {
			n *= axis
		}
	}
	if g.Repeats > 1 {
		n *= g.Repeats
	}
	return n
}

// Variant is one concrete scenario inside a suite.
type Variant struct {
	// Name identifies the variant in reports and exports; it must be unique
	// within a suite.
	Name string
	// Spec is the complete scenario specification, including the seed.
	Spec ScenarioSpec
	// Configure, when non-nil, runs on the assembled Scenario before it is
	// executed — for example to register Scenario.At interventions.
	Configure func(*Scenario) error
}

// ExpandGrid expands the axis grid over a base spec into the full cross
// product of variants. Every variant gets a deterministic seed derived from
// the base seed and the variant name, so (a) two variants never share a seed
// and (b) the same base spec and grid always produce the same variants, in
// the same order, regardless of where or how often they run. A grid with no
// swept axis expands to the single base spec verbatim, seed included.
func ExpandGrid(base ScenarioSpec, grid Grid) []Variant {
	patterns := grid.Patterns
	if len(patterns) == 0 {
		patterns = []LoadPattern{base.Workload.Pattern}
	}
	controllers := grid.Controllers
	if len(controllers) == 0 {
		controllers = []ControllerMode{base.Controller.Mode}
	}
	sizes := grid.ClusterSizes
	if len(sizes) == 0 {
		sizes = []int{base.Cluster.InitialNodes}
	}
	tiers := grid.SLATiers
	if len(tiers) == 0 {
		tiers = []SLATier{{SLA: base.SLA}}
	}
	faults := grid.Faults
	if len(faults) == 0 {
		faults = []FaultProfile{{Plan: base.Faults}}
	}
	mixes := grid.TenantMixes
	if len(mixes) == 0 {
		mixes = []TenantMix{{Tenants: base.Tenants}}
	}
	traces := grid.Traces
	if len(traces) == 0 {
		traces = []NamedTrace{{Trace: base.Replay}}
	}
	repeats := grid.Repeats
	if repeats < 1 {
		repeats = 1
	}

	variants := make([]Variant, 0, grid.Size())
	for _, pattern := range patterns {
		for _, controller := range controllers {
			for _, size := range sizes {
				for _, tier := range tiers {
					for _, fp := range faults {
						for _, mix := range mixes {
							for _, nt := range traces {
								for rep := 0; rep < repeats; rep++ {
									name := gridVariantName(grid, pattern, controller, size, tier, fp, mix, nt, rep)
									spec := base
									if name == "base" {
										// Degenerate grid with no swept axis: keep the
										// base spec (and its seed) verbatim, so a suite
										// of one reproduces a direct NewScenario run.
										variants = append(variants, Variant{Name: name, Spec: spec})
										continue
									}
									if len(grid.Patterns) > 0 {
										spec.Workload.Pattern = pattern
									}
									if len(grid.Controllers) > 0 {
										spec.Controller.Mode = controller
									}
									if len(grid.ClusterSizes) > 0 {
										spec.Cluster.InitialNodes = size
									}
									if len(grid.SLATiers) > 0 {
										spec.SLA = tier.SLA
									}
									if len(grid.Faults) > 0 {
										spec.Faults = fp.Plan
									}
									if len(grid.TenantMixes) > 0 {
										spec.Tenants = mix.Tenants
									}
									if len(grid.Traces) > 0 {
										spec.Replay = nt.Trace
									}
									spec.Seed = sim.DeriveSeed(base.Seed, name)
									variants = append(variants, Variant{Name: name, Spec: spec})
								}
							}
						}
					}
				}
			}
		}
	}
	return variants
}

// gridVariantName builds the canonical variant name from the swept axis
// values; axes the grid does not sweep contribute no component.
func gridVariantName(grid Grid, pattern LoadPattern, controller ControllerMode, size int, tier SLATier, fp FaultProfile, mix TenantMix, nt NamedTrace, rep int) string {
	// One buffer and one string per name: NewSuite names every variant.
	var buf [96]byte
	name := buf[:0]
	add := func(key, value string) {
		if len(name) > 0 {
			name = append(name, ' ')
		}
		name = append(append(append(name, key...), '='), value...)
	}
	if len(grid.Patterns) > 0 {
		add("pattern", string(patternOrConstant(pattern)))
	}
	if len(grid.Controllers) > 0 {
		add("ctl", string(modeOrNone(controller)))
	}
	if len(grid.ClusterSizes) > 0 {
		add("nodes", strconv.Itoa(size))
	}
	if len(grid.SLATiers) > 0 {
		add("sla", tier.Name)
	}
	if len(grid.Faults) > 0 {
		add("faults", fp.Name)
	}
	if len(grid.TenantMixes) > 0 {
		add("tenants", mix.Name)
	}
	if len(grid.Traces) > 0 {
		add("trace", nt.Name)
	}
	if grid.Repeats > 1 {
		add("rep", strconv.Itoa(rep))
	}
	if len(name) == 0 {
		return "base"
	}
	return string(name)
}

// SuiteSpec describes a batch of scenario variants to run and compare: a
// base spec, an axis grid expanded over it, optional explicit variants
// appended after the grid, and the concurrency bound.
type SuiteSpec struct {
	// Base is the spec every grid variant starts from.
	Base ScenarioSpec
	// Grid is the axis grid expanded over Base.
	Grid Grid
	// Variants are explicit variants appended after the grid expansion.
	// Their specs are used verbatim (including their seeds).
	Variants []Variant
	// Parallelism bounds the number of concurrently running scenarios;
	// zero or negative means GOMAXPROCS.
	Parallelism int
}

// Suite is a validated, expanded batch of scenario variants. Build it with
// NewSuite and execute it with Run; a suite can be run any number of times
// and always produces the same SuiteReport.
type Suite struct {
	spec     SuiteSpec
	variants []Variant
}

// NewSuite expands the grid, appends the explicit variants and validates
// every resulting scenario spec and name.
func NewSuite(spec SuiteSpec) (*Suite, error) {
	variants := ExpandGrid(spec.Base, spec.Grid)
	if len(spec.Grid.Patterns) == 0 && len(spec.Grid.Controllers) == 0 &&
		len(spec.Grid.ClusterSizes) == 0 && len(spec.Grid.SLATiers) == 0 &&
		len(spec.Grid.Faults) == 0 && len(spec.Grid.TenantMixes) == 0 &&
		len(spec.Grid.Traces) == 0 &&
		spec.Grid.Repeats <= 1 {
		// A grid with no swept axis expands to the bare base spec; drop it
		// when explicit variants are given, so SuiteSpec{Variants: ...} does
		// not smuggle in an extra run of the base.
		if len(spec.Variants) > 0 {
			variants = variants[:0]
		}
	}
	variants = append(variants, spec.Variants...)
	if len(variants) == 0 {
		return nil, errors.New("autonosql: suite has no variants")
	}
	seen := make(map[string]struct{}, len(variants))
	for i, v := range variants {
		if v.Name == "" {
			return nil, fmt.Errorf("autonosql: suite variant %d has no name", i)
		}
		if _, dup := seen[v.Name]; dup {
			return nil, fmt.Errorf("autonosql: duplicate suite variant name %q", v.Name)
		}
		seen[v.Name] = struct{}{}
		if err := v.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("autonosql: suite variant %q: %w", v.Name, err)
		}
	}
	return &Suite{spec: spec, variants: variants}, nil
}

// Variants returns the expanded variants in execution order.
func (s *Suite) Variants() []Variant {
	out := make([]Variant, len(s.variants))
	copy(out, s.variants)
	return out
}

// Run executes every variant across a bounded pool of goroutines and
// aggregates the per-variant reports into a SuiteReport. Each variant is an
// independent simulation with its own engine and random streams, so the
// report is identical whatever the parallelism; results are ordered by
// variant index, not completion order. A failing variant aborts the suite:
// in-flight variants finish, unstarted ones are skipped, and Run returns the
// first failure by variant index — alongside the partial SuiteReport holding
// every variant that was attempted (completed reports plus the failed
// variants with VariantResult.Err set), so a long run that dies near the end
// is recoverable rather than a total loss.
func (s *Suite) Run() (*SuiteReport, error) {
	var results []VariantResult
	meta, err := s.run(func(v VariantResult) error {
		results = append(results, v)
		return nil
	}, false)
	report := &SuiteReport{Variants: results, Elapsed: meta.Elapsed, Parallelism: meta.Parallelism}
	return report, err
}

// RunStream executes the suite like Run but hands each VariantResult to
// consume as soon as it is available instead of accumulating a SuiteReport:
// results arrive in variant-index order (not completion order), on a single
// goroutine, completed and failed variants alike. The claim window is bounded
// by the resolved parallelism, so at most Parallelism reports are retained at
// any moment however many variants the suite has — the path million-variant
// grids aggregate through (pair it with a SuiteAggregator). A non-nil error
// from consume aborts the suite like a variant failure. The returned RunMeta
// is the run's wall-clock envelope; the error aggregates the first variant
// failure (or consume error) exactly as Run does.
func (s *Suite) RunStream(consume func(VariantResult) error) (RunMeta, error) {
	return s.run(consume, true)
}

// run is the shared suite runner. Workers claim variant indices in order and
// a reorder buffer delivers results to consume in that same order, under one
// lock, so the consumer needs no synchronisation. With windowed set, a worker
// may only claim index i once i < delivered+workers — bounding
// claimed-but-undelivered results (the reports held in memory) to the worker
// count; without it, claims run ahead freely and delivery order is still by
// index. On the first variant failure (or consume error) claiming stops:
// in-flight variants finish and are delivered, unclaimed ones are skipped.
func (s *Suite) run(consume func(VariantResult) error, windowed bool) (RunMeta, error) {
	n := len(s.variants)
	workers := s.spec.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	started := time.Now()
	var (
		mu         sync.Mutex
		cond       = sync.NewCond(&mu)
		nextClaim  int
		delivered  int
		buf        = make(map[int]*VariantResult, workers)
		aborted    bool
		firstErr   error // earliest-index variant failure
		firstIdx   = n
		consumeErr error
		attempted  int
		failures   int
	)
	// flush delivers buffered results in index order. Caller holds mu.
	flush := func() {
		for {
			res, ok := buf[delivered]
			if !ok {
				return
			}
			delete(buf, delivered)
			delivered++
			attempted++
			if res.Err != nil {
				failures++
			}
			if consume != nil && consumeErr == nil {
				if err := consume(*res); err != nil {
					consumeErr = fmt.Errorf("autonosql: suite result consumer: %w", err)
					aborted = true
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for windowed && nextClaim >= delivered+workers && nextClaim < n && !aborted {
					cond.Wait()
				}
				if aborted || nextClaim >= n {
					mu.Unlock()
					return
				}
				i := nextClaim
				nextClaim++
				mu.Unlock()

				v := s.variants[i]
				report, err := runVariant(v)
				res := &VariantResult{Name: v.Name, Spec: v.Spec, Report: report}
				if err != nil {
					res.Err = fmt.Errorf("autonosql: suite variant %q: %w", v.Name, err)
				}

				mu.Lock()
				buf[i] = res
				if err != nil {
					aborted = true
					if i < firstIdx {
						firstIdx = i
						firstErr = res.Err
					}
				}
				flush()
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	meta := RunMeta{
		Elapsed:     time.Since(started),
		Parallelism: workers,
		Variants:    attempted,
		Failed:      failures,
	}
	switch {
	case consumeErr != nil:
		return meta, consumeErr
	case firstErr != nil:
		return meta, firstErr
	}
	return meta, nil
}

// runVariant assembles, configures and runs one variant's scenario.
func runVariant(v Variant) (*Report, error) {
	scenario, err := NewScenario(v.Spec)
	if err != nil {
		return nil, err
	}
	if v.Configure != nil {
		if err := v.Configure(scenario); err != nil {
			return nil, fmt.Errorf("configuring: %w", err)
		}
	}
	return scenario.Run()
}
