// Package cli is the one flags→ScenarioSpec path of the nosqlsim, suiterunner
// and hunter commands: the scenario-shaping flags they share are registered
// here, each with the command's own default and help text, and applied onto
// a spec with one error return. The file-export helper the commands share
// lives here too.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"autonosql"
)

// flagDoc is one command's default (string flags only) and help text for a
// shared flag.
type flagDoc struct{ def, usage string }

// The grammars of the three DSL flags, one each; every command's usage puts
// its own lead-in before the grammar.
const (
	tenantsGrammar = "comma-separated class:pattern:base[:peak=P][:read=F][:keys=K][:name=N]\n" +
		"(classes: gold, silver, bronze; e.g. \"gold:diurnal:2000,bronze:constant:500\")"
	admissionGrammar = "off | on[:mode=shed|delay][:frac=F][:floor=R][:cooldown=D][:hold=D]\n" +
		"(e.g. \"on:frac=0.4:floor=100\")"
	faultsGrammar = "comma-separated kind:start:duration[:n=N][:sev=S] events\n" +
		"(kinds: crash, slow, partition, storm; e.g. \"crash:1m:30s,storm:2m:30s:sev=0.8\")"
)

// commandFlags lists, per command (the FlagSet's name), the shared flags it
// registers. A flag absent from a command's map does not exist on it.
var commandFlags = map[string]map[string]flagDoc{
	"nosqlsim": {
		"faults":       {usage: "fault plan, " + faultsGrammar},
		"tenants":      {usage: "multi-tenant workload, replacing the -ops/-pattern traffic:\n" + tenantsGrammar},
		"admission":    {usage: "tenant admission control for the smart controller:\n" + admissionGrammar},
		"placement":    {usage: "allow the smart controller to dedicate nodes to an SLA class"},
		"trace-ops":    {usage: "write sampled op-trace spans (JSON lines) to the given file"},
		"trace-every":  {usage: "with -trace-ops, sample every Nth operation"},
		"trace-chrome": {usage: "write the sampled spans as a Chrome trace_event file\n(load in chrome://tracing or Perfetto)"},
		"audit":        {usage: "print the MAPE decision audit trail (smart controller)"},
		"profile":      {usage: "print the engine's self-profiling counters"},
	},
	"suiterunner": {
		"tenants":     {usage: "named tenants applied to every variant, " + tenantsGrammar},
		"admission":   {usage: "tenant admission control for smart variants:\n" + admissionGrammar},
		"placement":   {usage: "allow smart variants to dedicate nodes to an SLA class"},
		"trace-ops":   {usage: "directory to write each variant's sampled op-trace spans into\n(one <variant>.spans.jsonl file per variant)"},
		"trace-every": {usage: "with -trace-ops, sample every Nth operation"},
		"audit":       {usage: "record each variant's MAPE decision audit trail into its report\n(carried by the -json export)"},
		"profile":     {usage: "record each variant's engine self-profiling counters into its report"},
	},
	"hunter": {
		"tenants": {def: "gold:diurnal:800:peak=1400:read=0.6,bronze:spike:300:peak=1800:read=0.2",
			usage: "base tenant mix, " + tenantsGrammar},
		"admission": {def: "on", usage: "admission control:\n" + admissionGrammar},
		"faults":    {usage: "base fault plan, " + faultsGrammar},
		"placement": {usage: "allow class-aware placement actions"},
	},
}

// ScenarioFlags holds the values of the shared flags one command registered.
// A nil field is a flag the command does not have; Apply leaves the spec
// fields behind it alone.
type ScenarioFlags struct {
	Tenants, Admission, Faults *string
	Placement                  *bool
	TraceOps, TraceChrome      *string
	TraceEvery                 *int
	Audit, Profile             *bool
}

// Register adds the shared flags of the command fs is named after.
func Register(fs *flag.FlagSet) *ScenarioFlags {
	docs, ok := commandFlags[fs.Name()]
	if !ok {
		panic(fmt.Sprintf("cli: no shared flags declared for command %q", fs.Name()))
	}
	str := func(name string) *string {
		if d, ok := docs[name]; ok {
			return fs.String(name, d.def, d.usage)
		}
		return nil
	}
	boolean := func(name string) *bool {
		if d, ok := docs[name]; ok {
			return fs.Bool(name, false, d.usage)
		}
		return nil
	}
	one := func(name string) *int {
		if d, ok := docs[name]; ok {
			return fs.Int(name, 1, d.usage)
		}
		return nil
	}
	f := &ScenarioFlags{
		Tenants: str("tenants"), Admission: str("admission"), Faults: str("faults"),
		Placement: boolean("placement"),
		TraceOps:  str("trace-ops"), TraceChrome: str("trace-chrome"),
		TraceEvery: one("trace-every"),
		Audit:      boolean("audit"), Profile: boolean("profile"),
	}
	return f
}

// Apply parses the DSL-valued flags and assigns every registered flag onto
// spec. Call it after fs.Parse; the error is the first malformed value.
func (f *ScenarioFlags) Apply(spec *autonosql.ScenarioSpec) error {
	tenants, err := autonosql.ParseTenantSpecs(*f.Tenants)
	if err != nil {
		return err
	}
	spec.Tenants = tenants
	admission, err := autonosql.ParseAdmissionSpec(*f.Admission)
	if err != nil {
		return err
	}
	spec.Controller.Admission = admission
	spec.Controller.AllowPlacement = *f.Placement
	if f.Faults != nil {
		plan, err := autonosql.ParseFaultPlan(*f.Faults)
		if err != nil {
			return err
		}
		spec.Faults = plan
	}
	if f.TraceOps != nil {
		traceOps := *f.TraceOps != "" || (f.TraceChrome != nil && *f.TraceChrome != "")
		if traceOps || *f.Audit || *f.Profile {
			spec.Observe = &autonosql.ObserveSpec{
				TraceOps:    traceOps,
				SampleEvery: *f.TraceEvery,
				Audit:       *f.Audit,
				Profile:     *f.Profile,
			}
		}
	}
	return nil
}

// WriteFiles creates the file at every non-empty path, hands write the open
// files in path order (a nil Writer stands in for an empty path) and closes
// them all. When a file cannot be created, the ones already created are
// closed and write is not called. The error is the first of create, write
// and close.
func WriteFiles(paths []string, write func([]io.Writer) error) (err error) {
	ws := make([]io.Writer, len(paths))
	for i, path := range paths {
		if path == "" {
			continue
		}
		f, cerr := os.Create(path)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		ws[i] = f
	}
	return write(ws)
}

// WriteFile streams one export into a freshly created file.
func WriteFile(path string, write func(io.Writer) error) error {
	return WriteFiles([]string{path}, func(ws []io.Writer) error { return write(ws[0]) })
}
