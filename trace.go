package autonosql

import (
	"fmt"
	"io"
	"os"
	"time"

	"autonosql/internal/workload"
)

// WorkloadTrace is a recorded client arrival stream: every operation of a run
// with its virtual arrival time, issuing tenant and key, decoupled from the
// random streams that produced it. Record one with Scenario.RecordTrace (or
// the -record-trace CLI flag), persist it with WriteFile, and replay it by
// setting ScenarioSpec.Replay — the same arrivals then run against any
// controller configuration, making cross-controller comparisons exact rather
// than seed-matched.
//
// The file format is JSON lines: a header object
// {"v":1,"tenants":["gold","bronze"]} followed by one object per arrival
// {"t":<ns>,"tn":"gold","op":"r"|"w","k":<key index>}.
type WorkloadTrace struct {
	trace *workload.Trace
}

// ParseWorkloadTrace reads a trace in the JSON-lines format. Malformed input
// — bad JSON, unknown tenants, negative or out-of-order times, bad opcodes —
// is an error, never a panic.
func ParseWorkloadTrace(r io.Reader) (*WorkloadTrace, error) {
	t, err := workload.ParseTrace(r)
	if err != nil {
		return nil, fmt.Errorf("autonosql: %w", err)
	}
	return &WorkloadTrace{trace: t}, nil
}

// ReadWorkloadTraceFile reads a trace file in the JSON-lines format.
func ReadWorkloadTraceFile(path string) (*WorkloadTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("autonosql: reading trace: %w", err)
	}
	defer f.Close()
	t, err := ParseWorkloadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return t, nil
}

// Encode writes the trace in its canonical JSON-lines form.
func (t *WorkloadTrace) Encode(w io.Writer) error {
	if err := workload.EncodeTrace(t.trace, w); err != nil {
		return fmt.Errorf("autonosql: %w", err)
	}
	return nil
}

// WriteFile writes the trace to path in its canonical JSON-lines form.
func (t *WorkloadTrace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("autonosql: writing trace: %w", err)
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("autonosql: writing trace: %w", err)
	}
	return nil
}

// TenantNames returns the trace's tenant population in declaration order
// (empty for a single anonymous workload).
func (t *WorkloadTrace) TenantNames() []string {
	return append([]string(nil), t.trace.Tenants...)
}

// EventCount returns the number of recorded arrivals.
func (t *WorkloadTrace) EventCount() int { return len(t.trace.Events) }

// Scale returns a copy of the trace with every arrival time multiplied by
// factor: factor > 1 stretches the trace (lower arrival rate), factor < 1
// compresses it. A factor of exactly 1 returns a bit-for-bit copy whose
// replay is byte-identical to the original's; other factors round scaled
// times to whole nanoseconds, clamped monotone, so the result always
// validates.
func (t *WorkloadTrace) Scale(factor float64) (*WorkloadTrace, error) {
	scaled, err := t.trace.Scale(factor)
	if err != nil {
		return nil, fmt.Errorf("autonosql: %w", err)
	}
	return &WorkloadTrace{trace: scaled}, nil
}

// Duration returns the virtual time of the last recorded arrival.
func (t *WorkloadTrace) Duration() time.Duration { return t.trace.Duration() }

// matches checks the trace's tenant population against a spec's tenant
// declarations: same names, same order. Replaying a gold+bronze trace into a
// scenario that declares different tenants would silently misattribute
// traffic, so it is a validation error instead.
func (t *WorkloadTrace) matches(tenants []TenantSpec) error {
	if t == nil || t.trace == nil {
		return fmt.Errorf("trace is empty")
	}
	if err := t.trace.Validate(); err != nil {
		return err
	}
	if len(t.trace.Tenants) != len(tenants) {
		return fmt.Errorf("trace declares %d tenants, spec declares %d", len(t.trace.Tenants), len(tenants))
	}
	for i, ts := range tenants {
		if t.trace.Tenants[i] != ts.Name {
			return fmt.Errorf("trace tenant %d is %q, spec declares %q", i, t.trace.Tenants[i], ts.Name)
		}
	}
	return nil
}

// NamedTrace is a recorded trace used as a suite axis: every variant on the
// trace value replays the same arrivals.
type NamedTrace struct {
	// Name identifies the trace in variant names and report rows.
	Name string
	// Trace is the recorded arrival stream variants replay.
	Trace *WorkloadTrace
}
