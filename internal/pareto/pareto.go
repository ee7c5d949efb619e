// Package pareto builds period/energy trade-off frontiers — the
// laptop-problem ("best schedule within an energy budget") and
// server-problem ("least energy for a performance target") curves discussed
// in the paper's introduction. PeriodEnergyCtx is the one entry point: on
// the platform classes where the paper's bi-criteria algorithms are
// polynomial, it computes the frontier in polynomial time by sweeping the
// exact candidate set of achievable periods; elsewhere the exhaustive
// exact.ParetoFront applies.
//
// Every frontier starts from one compiled plan (internal/plan): the
// instance is validated, classified and preprocessed once. A candidate
// sweep takes the exact candidate set from the plan's precomputed state,
// and every candidate is then an independent min-energy query —
// embarrassingly parallel, so the sweep fans the queries across a bounded
// goroutine pool and collects the frontier from the in-order results, which
// keeps the output deterministic while using every core. With a shared
// batch.Cache (via Options.Cache) the plan itself is fetched from the
// cache's plan tier, so successive sweeps over one instance — or a sweep
// after a batch that already touched it — compile nothing at all.
package pareto

import (
	"context"
	"errors"
	"math"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Point is one (weighted global period, total energy) trade-off with a
// witness mapping.
type Point struct {
	Period  float64
	Energy  float64
	Mapping mapping.Mapping
}

// Filter returns the non-dominated subset, sorted by increasing period. A
// point dominates another when it is no worse on both coordinates and
// strictly better on one.
func Filter(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	// Sort by period then energy (insertion sort: frontiers are small).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && (sorted[j].Period < sorted[j-1].Period ||
			//lint:allow floatcmp sort comparator needs an exact total order (tolerant EQ is not transitive)
			(sorted[j].Period == sorted[j-1].Period && sorted[j].Energy < sorted[j-1].Energy)); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var out []Point
	bestE := math.Inf(1)
	for _, pt := range sorted {
		if fmath.LT(pt.Energy, bestE) {
			out = append(out, pt)
			bestE = pt.Energy
		}
	}
	return out
}

// planFor resolves the compiled plan for a sweep: through the shared
// cache's plan tier when a cache was provided (so successive sweeps and
// batches over the same instance compile once between them), otherwise a
// private compilation scoped to this sweep.
func planFor(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel, opts batch.Options) (*plan.Plan, error) {
	if opts.Cache != nil {
		pl, err, _ := opts.Cache.PlanFor(inst, rule, model)
		return pl, err
	}
	return plan.Compile(inst, rule, model)
}

// sweepFrontier solves the min-energy-under-period problem at every
// candidate period as concurrent incremental queries against one compiled
// plan (each query dispatches to the paper's polynomial algorithm for the
// platform class; validation and classification were paid once at compile
// time) and filters the feasible results down to the frontier. A candidate
// whose bounds no mapping can satisfy (core.ErrInfeasible — including
// platform shapes the rule cannot map at all, e.g. one-to-one with fewer
// processors than stages) is skipped, matching the sequential
// implementation: an empty frontier, not an error, reports that nothing is
// achievable. Every other query error — an unsupported criteria
// combination, a cancelled context, or core.ErrUnresolved (the search
// found no mapping but proved none absent) — is propagated: swallowing it
// would disguise a broken query or an open question as "nothing
// achievable".
func sweepFrontier(ctx context.Context, pl *plan.Plan, cands []float64, opts batch.Options) ([]Point, error) {
	results := make([]struct {
		res core.Result
		err error
	}, len(cands))
	batch.Each(ctx, len(cands), opts.Workers, func(i int) {
		results[i].res, results[i].err = pl.Solve(plan.Query{
			Objective:    core.Energy,
			PeriodBounds: core.UniformBounds(pl.Instance(), cands[i]),
		})
	}, func(i int) { results[i].err = ctx.Err() })
	var points []Point
	for i := range results {
		if results[i].err != nil {
			if errors.Is(results[i].err, core.ErrInfeasible) {
				continue // not achievable at this candidate period
			}
			return nil, results[i].err
		}
		points = append(points, Point{
			Period:  results[i].res.Metrics.Period,
			Energy:  results[i].res.Value,
			Mapping: results[i].res.Mapping,
		})
	}
	return Filter(points), nil
}

// PeriodEnergyCtx computes the period/energy trade-off frontier under the
// given rule; it is the package's one entry point. It resolves the plan
// first (validating the instance), then dispatches on the plan's rule and
// platform class. Where the paper's bi-criteria algorithms are polynomial
// (fully homogeneous interval mappings: Theorems 18 and 21; communication
// homogeneous one-to-one mappings: Theorem 19) the frontier is built by a
// candidate sweep, and each frontier point's mapping is a witness achieving
// (period <= Point.Period, Point.Energy) with minimal energy. Elsewhere it
// falls back to exhaustive enumeration, which refuses an instance with more
// mappings than its limit (exact.ErrSearchSpace) before it starts. The
// context cancels the candidate sweeps between jobs and the enumeration
// every 1024 mappings.
func PeriodEnergyCtx(ctx context.Context, inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel, opts batch.Options) ([]Point, error) {
	pl, err := planFor(inst, rule, model, opts)
	if err != nil {
		return nil, err
	}
	switch cls := pl.Class(); {
	case pl.Rule() == mapping.Interval && cls == pipeline.FullyHomogeneous,
		pl.Rule() == mapping.OneToOne && cls != pipeline.FullyHeterogeneous:
		return sweepFrontier(ctx, pl, pl.ParetoCandidates(), opts)
	}
	full, err := exact.ParetoFront(ctx, pl.Instance(), pl.Rule(), pl.Model())
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 0, len(full))
	for _, pt := range full {
		pts = append(pts, Point{Period: pt.Period, Energy: pt.Energy, Mapping: pt.Mapping})
	}
	return Filter(pts), nil
}

// MinEnergyUnderPeriod answers the server problem from a frontier: the
// least energy whose period does not exceed the target, or +Inf.
func MinEnergyUnderPeriod(front []Point, target float64) float64 {
	best := math.Inf(1)
	for _, pt := range front {
		if fmath.LE(pt.Period, target) && pt.Energy < best {
			best = pt.Energy
		}
	}
	return best
}

// MinPeriodUnderEnergy answers the laptop problem from a frontier: the best
// period achievable within the energy budget, or +Inf.
func MinPeriodUnderEnergy(front []Point, budget float64) float64 {
	best := math.Inf(1)
	for _, pt := range front {
		if fmath.LE(pt.Energy, budget) && pt.Period < best {
			best = pt.Period
		}
	}
	return best
}
