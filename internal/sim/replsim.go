package sim

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/repl"
)

// SimulateReplicated executes a replicated mapping (package repl): data set
// t is served, in every replicated interval, by replica t mod k, results
// are delivered to the output in data set order (streaming semantics, which
// is what gates a group by its slowest replica), and inter-group transfers
// are charged at the group's worst-case bandwidth — the same model as the
// analytic formulas, so measured and analytic values agree exactly.
//
// Options.ReleaseInterval spaces out data-set arrivals (data set t enters
// at t * ReleaseInterval); with a large spacing every data set traverses an
// empty pipeline, which exposes the per-path latencies of the different
// replica combinations.
func SimulateReplicated(inst *pipeline.Instance, rm *repl.Mapping, model pipeline.CommModel, opt Options) ([]Result, error) {
	if err := rm.Validate(inst); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return simulate(inst, rm, model, opt), nil
}

// VerifyReplicated simulates rm and checks the measured steady-state
// period of every application against the analytic replicated-period
// formula, and the measured worst-path latency (with well-spaced releases)
// against the analytic worst-path latency.
func VerifyReplicated(inst *pipeline.Instance, rm *repl.Mapping, model pipeline.CommModel, tol float64) error {
	results, err := SimulateReplicated(inst, rm, model, Options{})
	if err != nil {
		return err
	}
	for a, r := range results {
		wantT := repl.AppPeriod(inst, rm, a, model)
		if math.Abs(r.SteadyPeriod-wantT) > tol*math.Max(1, wantT) {
			return fmt.Errorf("sim: app %d replicated period: measured %g, analytic %g (%v)", a, r.SteadyPeriod, wantT, model)
		}
	}
	// Latency: release data sets far enough apart that each one traverses
	// an empty pipeline; the max per-data-set latency over one replica
	// cycle is the worst path. The spacing is a computed upper bound on
	// any path latency rather than a huge constant, to keep t*release
	// exactly representable next to the latencies themselves.
	spacing := 1.0
	for a := range rm.Apps {
		spacing += repl.AppLatency(inst, rm, a)
	}
	spaced, err := SimulateReplicated(inst, rm, model, Options{ReleaseInterval: spacing, Datasets: rm.Cycle()})
	if err != nil {
		return err
	}
	for a, r := range spaced {
		wantL := repl.AppLatency(inst, rm, a)
		if math.Abs(r.MaxLatency-wantL) > tol*math.Max(1, wantL) {
			return fmt.Errorf("sim: app %d replicated latency: measured %g, analytic %g (%v)", a, r.MaxLatency, wantL, model)
		}
	}
	return nil
}
