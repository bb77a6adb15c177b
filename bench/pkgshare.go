package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// The package shares come from a CPU profile of the workload's own
// operations, taken by the harness and folded by `go tool pprof -top`: flat
// samples by the package of the function they landed in, plus two cumulative
// figures for the runtime (time under the collector's workers and assists,
// and time under mallocgc outside those assists). A share is an upper bound
// on what speeding that package up can save on this workload when nothing
// else contends.

// profileOps runs operations under the CPU profiler until at least minWall
// has been profiled, writing the profile to path.
func profileOps(path string, minWall time.Duration, runOp func(i int) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	start := time.Now()
	var runErr error
	for i := 0; runErr == nil && (i == 0 || time.Since(start) < minWall); i++ {
		runErr = runOp(i)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("closing CPU profile: %w", err)
	}
	return runErr
}

// topRow is one function of `pprof -top`.
type topRow struct {
	flat, cum float64 // seconds
	fn        string
}

// topLine matches one function row; the profiles here are seconds long, so
// pprof prints them in s, ms, us or ns (a bare 0 has no unit).
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ms|s|us|ns)?\s+[0-9.]+%\s+[0-9.]+%\s+([0-9.]+)(ms|s|us|ns)?\s+[0-9.]+%\s+(.+)$`)

func pprofSeconds(num, unit string) float64 {
	v, _ := strconv.ParseFloat(num, 64)
	switch unit {
	case "ns":
		return v / 1e9
	case "us":
		return v / 1e6
	case "ms":
		return v / 1e3
	default:
		return v
	}
}

// parseTop reads the function table of `pprof -top` output.
func parseTop(out []byte) []topRow {
	var rows []topRow
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		mt := topLine.FindStringSubmatch(sc.Text())
		if mt == nil {
			continue
		}
		rows = append(rows, topRow{
			flat: pprofSeconds(mt[1], mt[2]),
			cum:  pprofSeconds(mt[3], mt[4]),
			fn:   strings.TrimSpace(strings.TrimSuffix(mt[5], "(inline)")),
		})
	}
	return rows
}

// funcPackage returns the import path of the package a pprof function name
// belongs to: "autonosql/internal/sim.(*Engine).Step" -> "autonosql/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // drop type arguments
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// pkgShareOf maps a package to the pkgshare metric its flat time counts
// under ("" for packages outside the catalogue).
func pkgShareOf(pkg string) string {
	switch pkg {
	case "autonosql":
		return "pkgshare.root"
	case "autonosql/internal/core", "autonosql/internal/baseline", "autonosql/internal/sla":
		return "pkgshare.core"
	case "autonosql/internal/serve", "net/http", "net", "encoding/json", "bufio":
		return "pkgshare.serve"
	case "sort", "slices":
		return "pkgshare.sort"
	case "math", "math/rand":
		return "pkgshare.math"
	}
	for _, layer := range []string{"sim", "store", "cluster", "workload", "metrics", "monitor", "tenant", "obs"} {
		if pkg == "autonosql/internal/"+layer {
			return "pkgshare." + layer
		}
	}
	return ""
}

// foldTop turns the function table into the pkgshare metrics.
func foldTop(rows []topRow) map[string]float64 {
	m := map[string]float64{}
	var total, gc, assist, malloc float64
	for _, r := range rows {
		total += r.flat
		if name := pkgShareOf(funcPackage(r.fn)); name != "" {
			m[name] += r.flat
		}
		switch r.fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			gc += r.cum
		case "runtime.gcAssistAlloc":
			assist += r.cum
		case "runtime.mallocgc":
			malloc += r.cum
		}
	}
	if total == 0 {
		return m
	}
	for k := range m {
		m[k] /= total
	}
	m["pkgshare.runtime_gc"] = (gc + assist) / total
	if malloc > assist {
		m["pkgshare.runtime_malloc"] = (malloc - assist) / total
	}
	return m
}

// pkgShares folds the CPU profile at path. The go tool is what built this
// binary, so it is there to be asked; if it is not, the caller reports the
// shares as unmeasured. tmpDir keeps pprof's own files inside the output
// directory.
func pkgShares(path, tmpDir string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	rows := parseTop(out)
	if len(rows) == 0 {
		return nil, fmt.Errorf("go tool pprof printed no function rows")
	}
	return foldTop(rows), nil
}
