// Command pipebench regenerates the paper's reproducible artifacts (see
// EXPERIMENTS.md): the Section 2 motivating example, the
// Table 1 and Table 2 complexity maps, the simulator validation of
// Equations 3-5, the period/energy Pareto frontier, the NP-hardness gadget
// equivalences, and the polynomial/exponential scaling split.
//
// Usage:
//
//	pipebench -exp all            # everything (default)
//	pipebench -exp fig1           # one experiment:
//	                              #   fig1 table1 table2 sim pareto npc scaling diff
//	pipebench -seed 7             # reseed the randomized validations
//	pipebench -exp diff -instances 1080
//	                              # differential verification corpus size
//	pipebench -exp benchdiff      # fresh corpus timing vs BENCH_solver.json,
//	                              # fail on >2x regression of any variant
//	pipebench -exp chaos -instances 36
//	                              # fault-injection chains over the corpus:
//	                              # re-solve p50/p99, degraded rate, shed rate
//
// pipebench exits non-zero if any paper claim failed to reproduce.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all | fig1 | table1 | table2 | sim | pareto | npc | extensions | scaling | diff | benchdiff | chaos")
	seed := fs.Int64("seed", 1, "seed for the randomized validations")
	trials := fs.Int("trials", 60, "trials for the simulator validation")
	instances := fs.Int("instances", 0, "scenarios for the differential check (0 = six combination windows)")
	benchFile := fs.String("bench-file", "BENCH_solver.json", "committed baseline for -exp benchdiff")
	benchFactor := fs.Float64("bench-factor", 2.0, "per-variant ns/op regression tolerance for -exp benchdiff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *exp {
	case "all":
		return experiments.All(stdout, *seed)
	case "fig1":
		return experiments.Fig1(stdout)
	case "table1":
		return experiments.Table1(stdout, *seed)
	case "table2":
		return experiments.Table2(stdout, *seed)
	case "sim":
		return experiments.SimValidation(stdout, *seed, *trials)
	case "pareto":
		return experiments.Pareto(stdout)
	case "npc":
		return experiments.NPC(stdout)
	case "extensions":
		return experiments.Extensions(stdout, *seed)
	case "scaling":
		return experiments.Scaling(stdout, *seed)
	case "diff":
		return experiments.Diff(stdout, *seed, *instances)
	case "benchdiff":
		return experiments.BenchDiff(stdout, *benchFile, *benchFactor)
	case "chaos":
		return experiments.Chaos(stdout, *seed, *instances)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}
