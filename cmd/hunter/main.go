// Command hunter searches for adversarial scenarios: it perturbs a base
// scenario with deterministic seed-derived mutations, hill-climbs toward the
// configuration that maximises a badness objective (gold-tenant SLA violation
// minutes, admission shed storms, cluster-size oscillation, or total priced
// cost) and shrinks the
// winner to a minimal reproducing spec. Findings can be persisted as golden
// spec + trace pairs and re-verified bit-for-bit with -check.
//
// Search:
//
//	hunter -objective gold-violations -seed 1 -rounds 4 -neighbors 6 \
//	       -duration 60s -controller smart \
//	       -tenants "gold:diurnal:800:peak=1400,bronze:spike:300:peak=1800" \
//	       -out testdata/adversarial -name storm1
//
// Regression check over a committed corpus:
//
//	hunter -check testdata/adversarial
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autonosql"
	"autonosql/internal/cli"
	"autonosql/internal/hunt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("hunter", flag.ContinueOnError)
	var (
		check       = fs.String("check", "", "verify every committed case in the given directory and exit")
		objective   = fs.String("objective", "gold-violations", "badness objective: gold-violations, shed-storm, oscillation, cost-blowup")
		seed        = fs.Int64("seed", 1, "hunter seed driving the mutation stream")
		rounds      = fs.Int("rounds", 4, "hill-climbing rounds")
		neighbors   = fs.Int("neighbors", 6, "mutated candidates per round")
		parallelism = fs.Int("parallelism", 0, "concurrent evaluations (0 = GOMAXPROCS; never affects results)")
		keep        = fs.Float64("keep", 0.9, "fraction of the worst score a shrunk case must retain")
		outDir      = fs.String("out", "", "directory to persist the found case into (with -name)")
		name        = fs.String("name", "", "case name for -out")

		baseSeed   = fs.Int64("base-seed", 1, "scenario seed of the base spec")
		duration   = fs.Duration("duration", 60*time.Second, "simulated duration of the base spec")
		nodes      = fs.Int("nodes", 3, "initial cluster size")
		nodeOps    = fs.Float64("node-ops", 2500, "per-node sustainable ops/s")
		controller = fs.String("controller", "smart", "controller: none, reactive, smart")
	)
	shared := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *check != "" {
		return runCheck(*check, out)
	}
	if *outDir != "" && *name == "" {
		fmt.Fprintln(os.Stderr, "hunter: -out requires -name")
		return 2
	}

	obj, err := hunt.ParseObjective(*objective)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
		return 2
	}
	spec := autonosql.DefaultScenarioSpec()
	spec.Seed = *baseSeed
	spec.Duration = *duration
	spec.Cluster.InitialNodes = *nodes
	spec.Cluster.NodeOpsPerSec = *nodeOps
	spec.Controller.Mode = autonosql.ControllerMode(*controller)
	if err := shared.Apply(&spec); err != nil {
		fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
		return 2
	}

	cfg := hunt.Config{
		Base:               spec,
		Objective:          obj,
		Seed:               *seed,
		Rounds:             *rounds,
		Neighbors:          *neighbors,
		Parallelism:        *parallelism,
		ShrinkKeepFraction: *keep,
	}
	res, err := hunt.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
		return 1
	}

	fmt.Fprintf(out, "objective:   %s\n", obj)
	fmt.Fprintf(out, "base score:  %s\n", hunt.FormatScore(res.BaseScore))
	fmt.Fprintf(out, "worst score: %s\n", hunt.FormatScore(res.WorstScore))
	fmt.Fprintf(out, "shrunk:      %s after %d evaluations\n", hunt.FormatScore(res.ShrunkScore), res.Evaluations)
	if len(res.Mutations) == 0 {
		fmt.Fprintf(out, "mutations:   none (the base spec is already the worst case found)\n")
	} else {
		fmt.Fprintf(out, "mutations (%d, minimal reproducing set):\n", len(res.Mutations))
		for _, m := range res.Mutations {
			fmt.Fprintf(out, "  - %s\n", m)
		}
	}

	if *outDir != "" {
		c, trace, err := hunt.NewCase(*name, cfg, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
			return 1
		}
		if err := c.Save(*outDir, trace); err != nil {
			fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "saved %s/%s.json (+ trace, %d arrivals)\n", *outDir, *name, trace.EventCount())
	}
	return 0
}

// runCheck verifies every committed case in dir bit-for-bit.
func runCheck(dir string, out *os.File) int {
	cases, err := hunt.LoadCases(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hunter: %v\n", err)
		return 1
	}
	if len(cases) == 0 {
		fmt.Fprintf(os.Stderr, "hunter: no cases under %s\n", dir)
		return 1
	}
	failed := 0
	for _, c := range cases {
		if err := c.Verify(dir); err != nil {
			fmt.Fprintf(out, "FAIL %s: %v\n", c.Name, err)
			failed++
			continue
		}
		fmt.Fprintf(out, "ok   %s (%s score %s, %d mutations)\n",
			c.Name, c.Objective, hunt.FormatScore(c.Score), len(c.Mutations))
	}
	if failed > 0 {
		fmt.Fprintf(out, "%d/%d cases failed\n", failed, len(cases))
		return 1
	}
	if !strings.HasSuffix(dir, "/") {
		dir += "/"
	}
	fmt.Fprintf(out, "all %d cases under %s reproduce bit-for-bit\n", len(cases), dir)
	return 0
}
