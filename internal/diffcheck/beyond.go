package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/gen"
)

// LargeSpace is DefaultSpace at the service benchmark's generator sizes:
// up to 8 stages per application, 10 in total, and 10 processors. There
// the mapping count of some NP-hard draws exceeds the dispatcher's exact
// limit, so the brute-force oracle cannot reach them and Beyond checks
// them against the branch-and-bound search instead.
func LargeSpace() gen.Space {
	sp := gen.DefaultSpace()
	sp.MaxStagesPerApp, sp.MaxTotalStages, sp.MaxProcs = 8, 10, 10
	return sp
}

// beyondWork is the work budget (exact.Options.Budget, placements tried)
// of Beyond's optimality check on degraded answers: a thousand times the
// solver's own. On LargeSpace at seed 11 it settles 60 of the 61 degraded
// answers, in about 2 s; the last one needs 32 million placements.
const beyondWork = 10_000_000

// BeyondSummary aggregates a Beyond run.
type BeyondSummary struct {
	// Checked counts the scenarios solved; proc-starved draws are skipped
	// (they are infeasible by construction).
	Checked int
	// Infeasible counts ErrInfeasible answers, each checked against a
	// branch-and-bound search with no leaf limit.
	Infeasible int
	// Unresolved counts core.ErrUnresolved answers, which claim nothing.
	Unresolved int
	// Degraded counts degraded answers; Settled those whose
	// branch-and-bound search ended within beyondWork, so the answer was
	// compared with the optimum; Optimal those among them equal to it
	// (fmath.EQ).
	Degraded, Settled, Optimal int
	// RatioP50, RatioP90 and RatioMax are the nearest-rank median, 90th
	// percentile and maximum of value/optimum over the settled degraded
	// answers: how far the degraded path lands from the optimum. They are
	// 0 when nothing settled.
	RatioP50, RatioP90, RatioMax float64
	// Failures counts the disagreements, reported or not.
	Failures int
}

// Beyond is the oracle past the exact limit. It samples n scenarios of
// space and solves each through core.Solve. Every ErrInfeasible answer
// must be a proof: a branch-and-bound search with no leaf limit must find
// no mapping either. Every degraded value must be no better than the
// branch-and-bound optimum wherever that search ends within beyondWork.
// It returns the summary and a joined error of the reported
// disagreements. Deterministic per (seed, n).
func Beyond(space gen.Space, seed int64, n int) (BeyondSummary, error) {
	if err := space.Validate(); err != nil {
		return BeyondSummary{}, err
	}
	outs := make([]beyondOutcome, n)
	batch.Each(context.Background(), n, 0, func(i int) {
		sc := space.Sample(seed, i)
		if sc.Degenerate == gen.DegenProcStarved {
			outs[i].skipped = true
			return
		}
		outs[i] = checkBeyond(&sc)
		if outs[i].err != nil {
			outs[i].err = fmt.Errorf("%s (seed %d, index %d): %w", sc.Name, sc.Seed, sc.Index, outs[i].err)
		}
	}, nil)

	var sum BeyondSummary
	var reported []error
	var ratios []float64
	for i := range outs {
		o := &outs[i]
		if o.skipped {
			continue
		}
		sum.Checked++
		if o.infeasible {
			sum.Infeasible++
		}
		if o.unresolved {
			sum.Unresolved++
		}
		if o.degraded {
			sum.Degraded++
		}
		if o.settled {
			sum.Settled++
		}
		if o.ratio > 0 {
			ratios = append(ratios, o.ratio)
		}
		if o.optimal {
			sum.Optimal++
		}
		if o.err == nil {
			continue
		}
		sum.Failures++
		if len(reported) < maxReported {
			reported = append(reported, o.err)
		}
	}
	sum.RatioP50, sum.RatioP90, sum.RatioMax = fmath.Percentile(ratios, 0.5), fmath.Percentile(ratios, 0.9), fmath.Percentile(ratios, 1)
	return sum, errors.Join(reported...)
}

// beyondOutcome is one scenario's check: which answer the solver gave,
// whether the branch-and-bound search adjudicated a degraded one and, when
// it found the optimum, the answer's value/optimum ratio (0 otherwise) and
// whether the answer is optimal, and the disagreement if any.
type beyondOutcome struct {
	skipped, infeasible, unresolved, degraded, settled, optimal bool
	ratio                                                       float64
	err                                                         error
}

// checkBeyond solves one scenario and checks its answer against the
// branch-and-bound search.
func checkBeyond(sc *gen.Scenario) (o beyondOutcome) {
	res, serr := core.Solve(&sc.Inst, sc.Req)
	opt, goal := core.ExactProblem(sc.Req)
	switch {
	case errors.Is(serr, core.ErrInfeasible):
		o.infeasible = true
		opt.Limit = math.MaxInt64
		sol, berr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
		switch {
		case berr == nil:
			o.err = fmt.Errorf("solver claims infeasible but branch and bound found a mapping of value %g", sol.Value)
		case !errors.Is(berr, exact.ErrInfeasible):
			o.err = fmt.Errorf("branch and bound failed: %w", berr)
		}
		return o
	case errors.Is(serr, core.ErrUnresolved):
		o.unresolved = true
		return o
	case serr != nil:
		o.err = fmt.Errorf("solver failed: %w", serr)
		return o
	case !res.Degraded:
		return o
	}
	o.degraded = true
	opt.Budget = beyondWork
	sol, berr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
	o.settled = berr == nil || errors.Is(berr, exact.ErrInfeasible)
	switch {
	case errors.Is(berr, exact.ErrSearchSpace):
	case errors.Is(berr, exact.ErrInfeasible):
		o.err = fmt.Errorf("degraded answer of value %g on a problem branch and bound proves infeasible", res.Value)
	case berr != nil:
		o.err = fmt.Errorf("branch and bound failed: %w", berr)
	case !fmath.GE(res.Value, sol.Value):
		o.err = fmt.Errorf("degraded value %g beats the branch-and-bound optimum %g", res.Value, sol.Value)
	default:
		o.ratio, o.optimal = res.Value/sol.Value, fmath.EQ(res.Value, sol.Value)
	}
	return o
}
