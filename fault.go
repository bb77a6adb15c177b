package autonosql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"autonosql/internal/fault"
)

// FaultKind selects the class of an injected fault.
type FaultKind string

// Supported fault kinds.
const (
	// FaultNodeCrash fails nodes abruptly; they restart after the fault's
	// duration (or stay down for the rest of the run when it is zero).
	FaultNodeCrash FaultKind = "crash"
	// FaultSlowNode degrades node capacity by the fault's severity fraction,
	// modelling a straggler (degraded disk, stolen CPU).
	FaultSlowNode FaultKind = "slow"
	// FaultPartition isolates a group of nodes from the rest of the cluster;
	// the partition heals after the fault's duration. Clients still reach
	// isolated nodes, so minority-side coordinators keep acknowledging writes
	// that the majority cannot see until the heal.
	FaultPartition FaultKind = "partition"
	// FaultLatencyStorm raises network congestion to the fault's severity for
	// the fault's duration.
	FaultLatencyStorm FaultKind = "storm"
)

// FaultSpec is one declarative fault event inside a scenario.
type FaultSpec struct {
	// Kind is the fault class.
	Kind FaultKind
	// At is the virtual time the fault strikes. Faults scheduled past the
	// scenario duration never fire.
	At time.Duration
	// Duration is how long the fault lasts before it is undone (restart,
	// heal, storm end). Zero means the fault holds until the run ends.
	Duration time.Duration
	// Nodes is how many nodes are affected (crash and slow counts, partition
	// minority size). Zero means one. The injector always leaves at least one
	// node untouched.
	Nodes int
	// Severity is the fault intensity in [0, 1]: the capacity fraction lost
	// per slow node, or the congestion level of a latency storm. Crash and
	// partition faults ignore it.
	Severity float64
}

// validate reports whether the fault spec is well formed.
func (f FaultSpec) validate() error {
	if _, ok := faultKinds[f.Kind]; !ok {
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if f.At < 0 {
		return fmt.Errorf("fault %s strikes at negative time %v", f.Kind, f.At)
	}
	if f.Duration < 0 {
		return fmt.Errorf("fault %s has negative duration %v", f.Kind, f.Duration)
	}
	if f.Nodes < 0 {
		return fmt.Errorf("fault %s affects negative node count %d", f.Kind, f.Nodes)
	}
	// NaN fails both range comparisons and would then stick in the
	// injector's additive severity bookkeeping forever; reject it explicitly.
	if math.IsNaN(f.Severity) || f.Severity < 0 || f.Severity > 1 {
		return fmt.Errorf("fault %s severity %v outside [0, 1]", f.Kind, f.Severity)
	}
	return nil
}

// FaultPlan schedules deterministic fault events over a scenario's virtual
// time. The zero value is the fault-free plan.
type FaultPlan struct {
	// Faults are the planned events, injected independently of each other.
	Faults []FaultSpec
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool { return len(p.Faults) == 0 }

// validate reports whether every event of the plan is well formed.
func (p FaultPlan) validate() error {
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// faultKinds maps each fault kind onto the injection engine's.
var faultKinds = map[FaultKind]fault.Kind{
	FaultNodeCrash: fault.KindCrash, FaultSlowNode: fault.KindSlow,
	FaultPartition: fault.KindPartition, FaultLatencyStorm: fault.KindStorm,
}

// toInternal converts the public plan into the injection engine's form.
func (p FaultPlan) toInternal() fault.Plan {
	events := make([]fault.Event, 0, len(p.Faults))
	for _, f := range p.Faults {
		if kind, ok := faultKinds[f.Kind]; ok {
			events = append(events, fault.Event{Kind: kind, At: f.At, Duration: f.Duration, Nodes: f.Nodes, Severity: f.Severity})
		}
	}
	return fault.Plan{Events: events}
}

// CrashFault plans nodes crashing at the given time and restarting after
// down (zero keeps them down for the rest of the run).
func CrashFault(at, down time.Duration, nodes int) FaultSpec {
	return FaultSpec{Kind: FaultNodeCrash, At: at, Duration: down, Nodes: nodes}
}

// SlowNodeFault plans nodes losing the severity fraction of their capacity
// between at and at+duration.
func SlowNodeFault(at, duration time.Duration, nodes int, severity float64) FaultSpec {
	return FaultSpec{Kind: FaultSlowNode, At: at, Duration: duration, Nodes: nodes, Severity: severity}
}

// PartitionFault plans a minority group of the given size being isolated
// from the rest of the cluster between at and at+heal.
func PartitionFault(at, heal time.Duration, minority int) FaultSpec {
	return FaultSpec{Kind: FaultPartition, At: at, Duration: heal, Nodes: minority}
}

// LatencyStormFault plans network congestion rising to level between at and
// at+duration.
func LatencyStormFault(at, duration time.Duration, level float64) FaultSpec {
	return FaultSpec{Kind: FaultLatencyStorm, At: at, Duration: duration, Severity: level}
}

// ParseFaultPlan parses a comma-separated fault plan DSL, one event per
// element:
//
//	kind:start:duration[:n=N][:sev=S]
//
// where kind is crash, slow, partition or storm and start/duration use Go
// duration syntax. Examples:
//
//	crash:30s:60s              one node crashes at 30s, restarts at 90s
//	partition:1m:45s:n=2       two nodes isolated at 1m, healed at 1m45s
//	slow:20s:40s:n=2:sev=0.5   two nodes lose half their capacity
//	storm:10s:30s:sev=0.8      congestion 0.8 between 10s and 40s
//
// An empty string parses to the empty (fault-free) plan. Ranges are
// FaultSpec's to check, so every accepted plan passes ScenarioSpec validation.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var plan FaultPlan
	err := parseDSLList("fault", s, func(elem string) error {
		var f FaultSpec
		fields, err := parseDSLElement(elem, "kind:start:duration", dslOptions{
			"n":   setOption(&f.Nodes, strconv.Atoi),
			"sev": setOption(&f.Severity, parseFloat),
		})
		if err != nil {
			return err
		}
		f.Kind = FaultKind(strings.ToLower(fields[0]))
		if f.At, err = time.ParseDuration(fields[1]); err != nil {
			return fmt.Errorf("start: %w", err)
		}
		if f.Duration, err = time.ParseDuration(fields[2]); err != nil {
			return fmt.Errorf("duration: %w", err)
		}
		plan.Faults = append(plan.Faults, f)
		return f.validate()
	})
	if err != nil {
		return FaultPlan{}, err
	}
	return plan, nil
}

// FaultProfile is a named fault plan used as a suite axis, analogous to
// SLATier on the SLA axis.
type FaultProfile struct {
	// Name identifies the profile in variant names and report rows.
	Name string
	// Plan is the fault plan applied to variants on this profile.
	Plan FaultPlan
}

// DefaultFaultProfiles returns the canonical named fault plans the suite
// runner and CLI expose, scaled to a run duration d: none (fault-free),
// crash (one node down from d/4 to d/2), partition (two-node minority cut
// off from d/4 to d/2), slow (one node at 40% capacity from d/4 to 3d/4) and
// storm (congestion 0.7 from d/4 to d/2).
func DefaultFaultProfiles(d time.Duration) []FaultProfile {
	q := d / 4
	return []FaultProfile{
		{Name: "none"},
		{Name: "crash", Plan: FaultPlan{Faults: []FaultSpec{CrashFault(q, q, 1)}}},
		{Name: "partition", Plan: FaultPlan{Faults: []FaultSpec{PartitionFault(q, q, 2)}}},
		{Name: "slow", Plan: FaultPlan{Faults: []FaultSpec{SlowNodeFault(q, 2*q, 1, 0.6)}}},
		{Name: "storm", Plan: FaultPlan{Faults: []FaultSpec{LatencyStormFault(q, q, 0.7)}}},
	}
}

// LookupFaultProfile returns the default profile with the given name, scaled
// to run duration d.
func LookupFaultProfile(name string, d time.Duration) (FaultProfile, bool) {
	for _, p := range DefaultFaultProfiles(d) {
		if p.Name == name {
			return p, true
		}
	}
	return FaultProfile{}, false
}
