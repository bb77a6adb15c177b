package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autonosql"
)

// parse builds the named command's shared flags, parses argv and applies the
// result onto a zero spec, so the returned spec holds exactly what the flags
// set.
func parse(t *testing.T, command string, argv ...string) (autonosql.ScenarioSpec, error) {
	t.Helper()
	fs := flag.NewFlagSet(command, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("%s %v: %v", command, argv, err)
	}
	var spec autonosql.ScenarioSpec
	err := f.Apply(&spec)
	return spec, err
}

func TestFlagsToScenarioSpec(t *testing.T) {
	tenants := []autonosql.TenantSpec{
		{Name: "gold", Class: autonosql.SLAGold, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadDiurnal, BaseOpsPerSec: 800, PeakOpsPerSec: 1400, ReadFraction: 0.5}},
		{Name: "batch", Class: autonosql.SLABronze, Workload: autonosql.WorkloadSpec{
			Pattern: autonosql.LoadConstant, BaseOpsPerSec: 300, ReadFraction: 0.2}},
	}
	admission := autonosql.AdmissionSpec{Enabled: true, ThrottleFraction: 0.4, MinRate: 100}
	faults := autonosql.FaultPlan{Faults: []autonosql.FaultSpec{
		{Kind: autonosql.FaultNodeCrash, At: time.Minute, Duration: 30 * time.Second, Nodes: 2},
	}}
	const (
		tenantsArg   = "gold:diurnal:800:peak=1400,bronze:constant:300:read=0.2:name=batch"
		admissionArg = "on:frac=0.4:floor=100"
		faultsArg    = "crash:1m:30s:n=2"
	)

	cases := []struct {
		command string
		argv    []string
		want    autonosql.ScenarioSpec
	}{
		{
			command: "nosqlsim",
			argv: []string{"-tenants", tenantsArg, "-admission", admissionArg, "-faults", faultsArg, "-placement",
				"-shards", "4", "-epoch", "5ms", "-trace-ops", "spans.jsonl", "-trace-every", "50", "-audit", "-profile"},
			want: autonosql.ScenarioSpec{
				Tenants: tenants, Faults: faults, Shards: 4, Epoch: 5 * time.Millisecond,
				Controller: autonosql.ControllerSpec{Admission: admission, AllowPlacement: true},
				Observe:    &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 50, Audit: true, Profile: true},
			},
		},
		{
			// -trace-chrome alone turns op tracing on; nothing else does.
			command: "nosqlsim",
			argv:    []string{"-trace-chrome", "trace.json"},
			want: autonosql.ScenarioSpec{
				Shards:  1,
				Observe: &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 1},
			},
		},
		{
			command: "suiterunner",
			argv: []string{"-tenants", tenantsArg, "-admission", admissionArg, "-placement",
				"-trace-ops", "spans/", "-trace-every", "50", "-audit", "-profile"},
			want: autonosql.ScenarioSpec{
				Tenants:    tenants,
				Controller: autonosql.ControllerSpec{Admission: admission, AllowPlacement: true},
				Observe:    &autonosql.ObserveSpec{TraceOps: true, SampleEvery: 50, Audit: true, Profile: true},
			},
		},
		{
			command: "suiterunner",
			want:    autonosql.ScenarioSpec{},
		},
		{
			command: "hunter",
			argv:    []string{"-tenants", tenantsArg, "-admission", admissionArg, "-faults", faultsArg, "-placement", "-shards", "4"},
			want: autonosql.ScenarioSpec{
				Tenants: tenants, Faults: faults, Shards: 4,
				Controller: autonosql.ControllerSpec{Admission: admission, AllowPlacement: true},
			},
		},
	}
	for _, tc := range cases {
		got, err := parse(t, tc.command, tc.argv...)
		if err != nil {
			t.Errorf("%s %v: %v", tc.command, tc.argv, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %v:\n got %+v\nwant %+v", tc.command, tc.argv, got, tc.want)
		}
	}

	// hunter's own defaults: the two-tenant base mix with admission on.
	got, err := parse(t, "hunter")
	if err != nil {
		t.Fatalf("hunter defaults: %v", err)
	}
	if len(got.Tenants) != 2 || !got.Controller.Admission.Enabled || got.Shards != 1 {
		t.Errorf("hunter defaults = %d tenants, admission %v, shards %d; want 2, on, 1",
			len(got.Tenants), got.Controller.Admission.Enabled, got.Shards)
	}
}

func TestMalformedDSLValues(t *testing.T) {
	cases := []struct {
		command, flag, value, wantInErr string
	}{
		{"nosqlsim", "-tenants", "gold:bogus", `tenant "gold:bogus"`},
		{"nosqlsim", "-admission", "maybe", `admission "maybe"`},
		{"nosqlsim", "-faults", "crash:zz", `fault "crash:zz"`},
		{"suiterunner", "-tenants", "gold:bogus", `tenant "gold:bogus"`},
		{"suiterunner", "-admission", "maybe", `admission "maybe"`},
		{"hunter", "-tenants", "gold:bogus", `tenant "gold:bogus"`},
		{"hunter", "-admission", "maybe", `admission "maybe"`},
		{"hunter", "-faults", "crash:zz", `fault "crash:zz"`},
	}
	for _, tc := range cases {
		_, err := parse(t, tc.command, tc.flag, tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("%s %s %q: error %v, want one naming %s", tc.command, tc.flag, tc.value, err, tc.wantInErr)
		}
	}
}

// TestCommandFlagSubsets pins that a command only grows the shared flags it
// declares: suiterunner's -faults and (ignored) -shards are grid axes it
// registers itself, and hunter has no observe flags.
func TestCommandFlagSubsets(t *testing.T) {
	for command, absent := range map[string][]string{
		"suiterunner": {"faults", "shards", "epoch", "trace-chrome"},
		"hunter":      {"epoch", "trace-ops", "trace-every", "trace-chrome", "audit", "profile"},
	} {
		fs := flag.NewFlagSet(command, flag.ContinueOnError)
		Register(fs)
		for _, name := range absent {
			if fs.Lookup(name) != nil {
				t.Errorf("%s registers shared flag -%s it does not declare", command, name)
			}
		}
	}
}

// TestDeprecatedFlagsSayIgnored pins the deprecation surface: -shards and
// -epoch still parse onto the spec (stored command lines keep working), and
// their usage says they have no effect.
func TestDeprecatedFlagsSayIgnored(t *testing.T) {
	for command, names := range map[string][]string{
		"nosqlsim": {"shards", "epoch"},
		"hunter":   {"shards"},
	} {
		fs := flag.NewFlagSet(command, flag.ContinueOnError)
		Register(fs)
		for _, name := range names {
			f := fs.Lookup(name)
			if f == nil {
				t.Fatalf("%s no longer accepts -%s", command, name)
			}
			if !strings.Contains(f.Usage, "ignored") {
				t.Errorf("%s -%s usage %q does not say the flag is ignored", command, name, f.Usage)
			}
		}
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	err := WriteFiles([]string{a, "", b}, func(ws []io.Writer) error {
		if ws[1] != nil {
			t.Errorf("empty path got a writer")
		}
		io.WriteString(ws[0], "A")
		io.WriteString(ws[2], "B")
		return nil
	})
	if err != nil {
		t.Fatalf("WriteFiles: %v", err)
	}
	for path, want := range map[string]string{a: "A", b: "B"} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, []byte(want)) {
			t.Errorf("%s = %q, %v; want %q", path, got, err, want)
		}
	}

	// A failed create closes what was already open and never calls write.
	before := openFDs(t)
	err = WriteFiles([]string{a, filepath.Join(dir, "missing", "c")}, func(ws []io.Writer) error {
		t.Error("write called although a file could not be created")
		return nil
	})
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed create returned %v, want a not-exist error", err)
	}
	if after := openFDs(t); after != before {
		t.Errorf("failed create left %d file descriptors open", after-before)
	}

	// The write error wins over a clean close.
	boom := errors.New("boom")
	if err := WriteFile(a, func(io.Writer) error { return boom }); err != boom {
		t.Errorf("WriteFile returned %v, want the write error", err)
	}
}

// openFDs counts the process's open file descriptors (Linux only; elsewhere
// it reports a constant so the leak check passes vacuously).
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(entries)
}
