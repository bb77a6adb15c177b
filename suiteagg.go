package autonosql

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"autonosql/internal/text"
)

// SuiteAggregatorOptions configures a SuiteAggregator's streamed outputs.
// Every field is optional; a zero options value aggregates tables and the
// cheapest-compliant winner only.
type SuiteAggregatorOptions struct {
	// CSV, when non-nil, receives the per-variant CSV export incrementally:
	// SuiteCSVHeader first, then one record per completed variant as it is
	// added. SuiteReport.WriteCSV is this same stream over a finished run.
	CSV io.Writer
	// TenantsCSV, when non-nil, receives the per-tenant CSV export
	// incrementally; SuiteReport.WriteTenantsCSV is the same stream.
	TenantsCSV io.Writer
	// JSON, when non-nil, receives the full suite report — specs, reports
	// and series — incrementally, one variant at a time. After Close the
	// bytes are identical to SuiteReport.WriteJSON on the same run, so
	// ReadSuiteReportJSON reads them back.
	JSON io.Writer
	// SpillDir, when non-empty, writes each variant's complete result (spec,
	// report and series) to its own indented JSON file in that directory,
	// named <index>_<sanitized-variant-name>.report.json — the durable
	// per-variant record for grids too large to hold a SuiteReport of.
	SpillDir string
	// MaxViolationMinutes is the compliance threshold for the incremental
	// CheapestCompliant tracking (same meaning as the SuiteReport method's
	// argument). Zero demands full compliance.
	MaxViolationMinutes float64
}

// SuiteAggregator consumes VariantResults one at a time — from
// Suite.RunStream, or from a finished SuiteReport, whose table, winner and CSV
// methods all feed one — and maintains everything a SuiteReport offers without
// retaining the reports: comparison/cost/fault/tenant table rows, the
// cheapest compliant variant, and incremental CSV/JSON emission. Memory grows
// with the table rows (a few short strings per variant), not with the full
// reports and their time series; at most one report (the current
// cheapest-compliant winner) is retained. Results must be added in variant
// order, which RunStream guarantees; the aggregator is not safe for
// concurrent use (RunStream delivers on a single goroutine).
//
// Call Close after the last Add to finish the JSON document and flush the
// CSV writers. The streamed JSON bytes are then identical to
// SuiteReport.WriteJSON on the same run.
type SuiteAggregator struct {
	opts SuiteAggregatorOptions

	added    int
	failures []error

	compRows   [][]string
	costRows   [][]string
	faultRows  [][]string
	tenantRows [][]string

	cheapest    *VariantResult
	cheapestIdx int

	csvW                 *csv.Writer
	csvHeaderDone        bool
	tenantsCSVW          *csv.Writer
	tenantsCSVHeaderDone bool
	jsonStarted          bool
	spillReady           bool
	closed               bool
	err                  error
}

// NewSuiteAggregator creates an aggregator with the given streamed outputs.
func NewSuiteAggregator(opts SuiteAggregatorOptions) *SuiteAggregator {
	a := &SuiteAggregator{opts: opts}
	if opts.CSV != nil {
		a.csvW = csv.NewWriter(opts.CSV)
	}
	if opts.TenantsCSV != nil {
		a.tenantsCSVW = csv.NewWriter(opts.TenantsCSV)
	}
	return a
}

// Consume returns Add as a Suite.RunStream consumer:
//
//	meta, err := suite.RunStream(agg.Consume())
func (a *SuiteAggregator) Consume() func(VariantResult) error {
	return a.Add
}

// Add folds one variant result into the aggregate. Failed variants (Err set,
// nil report) are recorded in Failures and contribute to the JSON stream —
// whose bytes must match the in-memory partial report — but to no table or
// CSV row.
func (a *SuiteAggregator) Add(v VariantResult) error {
	if a.err != nil {
		return a.err
	}
	if a.closed {
		return a.fail(errors.New("autonosql: SuiteAggregator: Add after Close"))
	}
	idx := a.added
	a.added++

	if err := a.emitJSON(&v); err != nil {
		return a.fail(err)
	}
	if v.Report == nil {
		err := v.Err
		if err == nil {
			err = fmt.Errorf("autonosql: suite variant %q: no report", v.Name)
		}
		a.failures = append(a.failures, err)
		return nil
	}

	a.compRows = append(a.compRows, comparisonRow(v.Name, v.Report))
	a.costRows = append(a.costRows, costRow(v.Name, v.Report))
	a.faultRows = append(a.faultRows, faultRowsFor(v.Name, v.Report)...)
	a.tenantRows = append(a.tenantRows, tenantRowsFor(v.Name, v.Report)...)

	// Strictly cheaper wins, ties keep the earlier variant; a NaN total
	// never qualifies.
	if v.Report.Violations.Total <= a.opts.MaxViolationMinutes {
		if a.cheapest == nil || v.Report.Cost.Total < a.cheapest.Report.Cost.Total {
			held := v
			a.cheapest = &held
			a.cheapestIdx = idx
		}
	}

	if a.csvW != nil {
		if err := a.writeCSVRow(&v); err != nil {
			return a.fail(err)
		}
	}
	if a.tenantsCSVW != nil {
		if err := a.writeTenantRows(&v); err != nil {
			return a.fail(err)
		}
	}
	if a.opts.SpillDir != "" {
		if err := a.spill(idx, &v); err != nil {
			return a.fail(err)
		}
	}
	return nil
}

// Close finishes the streamed outputs: the JSON document's closing brackets
// and the CSV flushes (including bare headers when no variant completed). It
// is idempotent; Add after Close is an error.
func (a *SuiteAggregator) Close() error {
	if a.closed || a.err != nil {
		return a.err
	}
	a.closed = true
	if a.opts.JSON != nil {
		if !a.jsonStarted {
			if _, err := io.WriteString(a.opts.JSON, "{\n  \"Variants\": []\n}\n"); err != nil {
				return a.fail(fmt.Errorf("autonosql: encoding suite report: %w", err))
			}
		} else if _, err := io.WriteString(a.opts.JSON, "\n  ]\n}\n"); err != nil {
			return a.fail(fmt.Errorf("autonosql: encoding suite report: %w", err))
		}
	}
	if a.csvW != nil {
		if err := a.ensureCSVHeader(); err != nil {
			return a.fail(err)
		}
		a.csvW.Flush()
		if err := a.csvW.Error(); err != nil {
			return a.fail(fmt.Errorf("autonosql: writing suite CSV: %w", err))
		}
	}
	if a.tenantsCSVW != nil {
		if err := a.ensureTenantsCSVHeader(); err != nil {
			return a.fail(err)
		}
		a.tenantsCSVW.Flush()
		if err := a.tenantsCSVW.Error(); err != nil {
			return a.fail(fmt.Errorf("autonosql: writing tenant CSV: %w", err))
		}
	}
	return nil
}

// Added returns the number of results consumed so far (completed + failed).
func (a *SuiteAggregator) Added() int { return a.added }

// Failures returns the errors of the failed variants added so far, in
// variant order.
func (a *SuiteAggregator) Failures() []error {
	out := make([]error, len(a.failures))
	copy(out, a.failures)
	return out
}

// CheapestCompliant returns the variant with the lowest total cost among
// those whose violation minutes did not exceed the configured threshold, or
// nil when none qualifies. The winner is the only full report the aggregator
// retains.
func (a *SuiteAggregator) CheapestCompliant() *VariantResult { return a.cheapest }

// ComparisonTable renders the SLA-facing comparison over the variants added
// so far.
func (a *SuiteAggregator) ComparisonTable() string {
	return text.FormatAligned(suiteComparisonTitle, suiteComparisonColumns, a.compRows, nil)
}

// CostTable renders the cost comparison over the variants added so far.
func (a *SuiteAggregator) CostTable() string {
	return text.FormatAligned(suiteCostTitle, suiteCostColumns, a.costRows, nil)
}

// FaultsTable renders the fault timeline over the variants added so far
// (empty when none injected faults).
func (a *SuiteAggregator) FaultsTable() string {
	if len(a.faultRows) == 0 {
		return ""
	}
	return text.FormatAligned(suiteFaultsTitle, suiteFaultsColumns, a.faultRows, nil)
}

// TenantsTable renders the per-tenant comparison over the variants added so
// far (empty when none declared tenants).
func (a *SuiteAggregator) TenantsTable() string {
	if len(a.tenantRows) == 0 {
		return ""
	}
	return text.FormatAligned(suiteTenantsTitle, suiteTenantsColumns, a.tenantRows, nil)
}

// String renders the comparison and cost tables, plus the fault and tenant
// tables when populated.
func (a *SuiteAggregator) String() string {
	s := a.ComparisonTable() + "\n" + a.CostTable()
	if ft := a.FaultsTable(); ft != "" {
		s += "\n" + ft
	}
	if tt := a.TenantsTable(); tt != "" {
		s += "\n" + tt
	}
	return s
}

// fail records the first sink error; every later Add/Close returns it.
func (a *SuiteAggregator) fail(err error) error {
	if a.err == nil {
		a.err = err
	}
	return a.err
}

// emitJSON streams one variant into the JSON document. The byte layout —
// two-space indent, element prefix, separators — replicates exactly what
// SuiteReport.WriteJSON's json.Encoder produces for the whole report, which
// the equivalence test pins.
func (a *SuiteAggregator) emitJSON(v *VariantResult) error {
	if a.opts.JSON == nil {
		return nil
	}
	if !a.jsonStarted {
		a.jsonStarted = true
		if _, err := io.WriteString(a.opts.JSON, "{\n  \"Variants\": [\n    "); err != nil {
			return fmt.Errorf("autonosql: encoding suite report: %w", err)
		}
	} else if _, err := io.WriteString(a.opts.JSON, ",\n    "); err != nil {
		return fmt.Errorf("autonosql: encoding suite report: %w", err)
	}
	// Elements sit two indent levels deep: prefix every continuation line
	// with four spaces, indenting nested levels by two more.
	b, err := json.MarshalIndent(v, "    ", "  ")
	if err != nil {
		return fmt.Errorf("autonosql: encoding suite report variant %q: %w", v.Name, err)
	}
	if _, err := a.opts.JSON.Write(b); err != nil {
		return fmt.Errorf("autonosql: encoding suite report: %w", err)
	}
	return nil
}

func (a *SuiteAggregator) ensureCSVHeader() error {
	if !a.csvHeaderDone {
		a.csvHeaderDone = true
		if err := a.csvW.Write(SuiteCSVHeader()); err != nil {
			return fmt.Errorf("autonosql: writing suite CSV header: %w", err)
		}
	}
	return nil
}

func (a *SuiteAggregator) ensureTenantsCSVHeader() error {
	if !a.tenantsCSVHeaderDone {
		a.tenantsCSVHeaderDone = true
		if err := a.tenantsCSVW.Write(TenantCSVHeader()); err != nil {
			return fmt.Errorf("autonosql: writing tenant CSV header: %w", err)
		}
	}
	return nil
}

// writeCSVRow appends one completed variant to the streamed CSV.
func (a *SuiteAggregator) writeCSVRow(v *VariantResult) error {
	if err := a.ensureCSVHeader(); err != nil {
		return err
	}
	if err := a.csvW.Write(v.csvRow()); err != nil {
		return fmt.Errorf("autonosql: writing suite CSV row %q: %w", v.Name, err)
	}
	a.csvW.Flush()
	if err := a.csvW.Error(); err != nil {
		return fmt.Errorf("autonosql: writing suite CSV: %w", err)
	}
	return nil
}

// writeTenantRows appends one completed variant's tenant rows to the
// streamed per-tenant CSV.
func (a *SuiteAggregator) writeTenantRows(v *VariantResult) error {
	if err := a.ensureTenantsCSVHeader(); err != nil {
		return err
	}
	for _, tr := range v.Report.Tenants {
		if err := a.tenantsCSVW.Write(tenantCSVRow(v.Name, tr)); err != nil {
			return fmt.Errorf("autonosql: writing tenant CSV row %q/%q: %w", v.Name, tr.Name, err)
		}
	}
	a.tenantsCSVW.Flush()
	if err := a.tenantsCSVW.Error(); err != nil {
		return fmt.Errorf("autonosql: writing tenant CSV: %w", err)
	}
	return nil
}

// spill writes one variant's complete result to its own file. The index
// prefix keeps file names unique even when two variant names sanitize to the
// same string, and keeps a directory listing in variant order.
func (a *SuiteAggregator) spill(idx int, v *VariantResult) error {
	if !a.spillReady {
		if err := os.MkdirAll(a.opts.SpillDir, 0o755); err != nil {
			return fmt.Errorf("autonosql: creating spill directory: %w", err)
		}
		a.spillReady = true
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("autonosql: encoding spilled variant %q: %w", v.Name, err)
	}
	b = append(b, '\n')
	path := filepath.Join(a.opts.SpillDir, fmt.Sprintf("%06d_%s.report.json", idx, text.SafeFileName(v.Name)))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("autonosql: spilling variant %q: %w", v.Name, err)
	}
	return nil
}
