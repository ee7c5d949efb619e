// Command pipemap solves a multi-criteria mapping problem described by a
// JSON instance file and prints the resulting mapping, its metrics and the
// algorithm used.
//
// Usage:
//
//	pipemap -in problem.json -objective period [flags]
//
// Flags:
//
//	-in path          instance JSON (default: stdin)
//	-rule             one-to-one | interval (default interval)
//	-model            overlap | no-overlap (default overlap)
//	-objective        period | latency | energy
//	-period-bound x   global weighted period threshold (per-app bound x/W_a)
//	-latency-bound x  global weighted latency threshold
//	-energy-budget x  global energy budget
//	-seed n           heuristic seed
//	-json             emit the mapping as JSON instead of text
//
// Example (the paper's Section 2 trade-off):
//
//	pipemap -in fig1.json -objective energy -period-bound 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipemap:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipemap", flag.ContinueOnError)
	in := fs.String("in", "", "instance JSON file (default: stdin)")
	ruleFlag := fs.String("rule", "interval", "mapping rule: one-to-one | interval")
	modelFlag := fs.String("model", "overlap", "communication model: overlap | no-overlap")
	objFlag := fs.String("objective", "period", "objective: period | latency | energy")
	periodBound := fs.Float64("period-bound", 0, "global weighted period threshold (0 = none)")
	latencyBound := fs.Float64("latency-bound", 0, "global weighted latency threshold (0 = none)")
	energyBudget := fs.Float64("energy-budget", 0, "global energy budget (0 = none)")
	seed := fs.Int64("seed", 1, "heuristic seed")
	asJSON := fs.Bool("json", false, "emit the mapping as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	inst, err := pipeline.DecodeJSON(r)
	if err != nil {
		return err
	}

	req := core.Request{Seed: *seed}
	if req.Rule, err = mapping.ParseRule(*ruleFlag); err != nil {
		return err
	}
	if req.Model, err = pipeline.ParseCommModel(*modelFlag); err != nil {
		return err
	}
	if req.Objective, err = pipeline.ParseCriterion(*objFlag); err != nil {
		return err
	}
	if *periodBound > 0 {
		req.PeriodBounds = core.UniformBounds(&inst, *periodBound)
	}
	if *latencyBound > 0 {
		req.LatencyBounds = core.UniformBounds(&inst, *latencyBound)
	}
	req.EnergyBudget = *energyBudget

	res, err := core.Solve(&inst, req)
	if err != nil {
		return err
	}
	if *asJSON {
		return mapping.EncodeJSON(stdout, &res.Mapping)
	}

	fmt.Fprintf(stdout, "objective  : %v\n", req.Objective)
	fmt.Fprintf(stdout, "method     : %s\n", res.Method)
	fmt.Fprintf(stdout, "optimal    : %v\n", res.Optimal)
	fmt.Fprintf(stdout, "value      : %s\n", report.Fmt(res.Value))
	fmt.Fprintf(stdout, "period     : %s\n", report.Fmt(res.Metrics.Period))
	fmt.Fprintf(stdout, "latency    : %s\n", report.Fmt(res.Metrics.Latency))
	fmt.Fprintf(stdout, "energy     : %s\n", report.Fmt(res.Metrics.Energy))
	tb := report.New("mapping", "app", "stages", "processor", "speed")
	for a := range res.Mapping.Apps {
		name := inst.Apps[a].Name
		if name == "" {
			name = fmt.Sprintf("app%d", a+1)
		}
		for _, iv := range res.Mapping.Apps[a].Intervals {
			proc := inst.Platform.Processors[iv.Proc]
			pname := proc.Name
			if pname == "" {
				pname = fmt.Sprintf("P%d", iv.Proc+1)
			}
			tb.Addf(name, fmt.Sprintf("%d-%d", iv.From+1, iv.To+1), pname, proc.Speeds[iv.Mode])
		}
	}
	tb.Render(stdout)
	return nil
}
