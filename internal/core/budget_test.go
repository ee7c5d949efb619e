package core_test

import (
	"errors"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestBudgetBeyondExactLimit checks the NP-hard cells past the exact limit
// on the service benchmark's generator sizes (up to 8 stages per
// application, 10 in total, 10 processors). A problem whose
// branch-and-bound search ends within core.ExactWork placements answers
// MethodExact, optimal, with the unbounded search's optimum bit for bit;
// one that runs out answers a degraded value no worse than the incumbent
// the budgeted search found, and never ErrUnresolved while it has one.
func TestBudgetBeyondExactLimit(t *testing.T) {
	space := gen.DefaultSpace()
	space.MaxStagesPerApp, space.MaxTotalStages, space.MaxProcs = 8, 10, 10
	solved, degraded, withIncumbent := 0, 0, 0
	for i := 0; i < 1500; i++ {
		sc := space.Sample(11, i)
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		opt, goal := core.ExactProblem(sc.Req)
		if _, err := exact.CountMappings(&sc.Inst, exact.Options{Rule: sc.Req.Rule, Modes: exact.AllModes, Limit: 2_000_000}); err == nil {
			continue // within the exact limit
		}
		res, err := core.Solve(&sc.Inst, sc.Req)
		if err == nil && res.Method != core.MethodExact && res.Method != core.MethodHeuristic {
			continue // a polynomial cell
		}
		opt.Budget = core.ExactWork
		sol, berr := exact.Minimize(&sc.Inst, opt, goal)
		switch {
		case berr == nil:
			solved++
			opt.Budget = 0
			full, ferr := exact.Minimize(&sc.Inst, opt, goal)
			//lint:allow floatcmp the budgeted answer must be the unbounded optimum bit for bit
			if err != nil || ferr != nil || res.Method != core.MethodExact || !res.Optimal || res.Degraded || res.Value != full.Value {
				t.Fatalf("%s (index %d): answered %q optimal %v value %v (%v); unbounded search %v (%v)",
					sc.Name, i, res.Method, res.Optimal, res.Value, err, full.Value, ferr)
			}
		case errors.Is(berr, exact.ErrSearchSpace):
			if len(sol.Mapping.Apps) > 0 {
				withIncumbent++
				if err != nil || !fmath.LE(res.Value, sol.Value) {
					t.Fatalf("%s (index %d): answered %v (%v), worse than the incumbent %v", sc.Name, i, res.Value, err, sol.Value)
				}
			}
			if err == nil {
				degraded++
				if !res.Degraded || res.Method != core.MethodHeuristic || res.Optimal {
					t.Fatalf("%s (index %d): budget ran out but the answer is %q, degraded %v", sc.Name, i, res.Method, res.Degraded)
				}
			} else if !errors.Is(err, core.ErrUnresolved) {
				t.Fatalf("%s (index %d): budget ran out and the answer is %v", sc.Name, i, err)
			}
		case !errors.Is(err, core.ErrInfeasible):
			t.Fatalf("%s (index %d): the budgeted search proves infeasibility, the answer is %v", sc.Name, i, err)
		}
	}
	if solved == 0 || degraded == 0 || withIncumbent == 0 {
		t.Fatalf("draws exercise too little: %d solved within the budget, %d degraded, %d with an incumbent", solved, degraded, withIncumbent)
	}
	t.Logf("%d solved within the budget, %d degraded, %d with an incumbent", solved, degraded, withIncumbent)
}

// TestUnresolvedIsNotInfeasible checks the heuristic never answers
// ErrInfeasible: an infeasible NP-hard problem answers ErrUnresolved when
// ExactLimit 1 leaves the search no budget, and ErrInfeasible, a proof,
// when the search runs to the end.
func TestUnresolvedIsNotInfeasible(t *testing.T) {
	inst := pipeline.MotivatingExample()
	req := core.Request{Rule: mapping.Interval, Objective: core.Energy, PeriodBounds: []float64{0.01, 0.01}}
	if _, err := core.Solve(&inst, req); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("full search: %v, want ErrInfeasible", err)
	}
	req.ExactLimit = 1
	_, err := core.Solve(&inst, req)
	if !errors.Is(err, core.ErrUnresolved) || errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("no budget: %v, want ErrUnresolved only", err)
	}
}

// BenchmarkSolveBeyondExactLimit times Solve on the first 64 NP-hard jobs
// past the exact limit among seed 11's draws at the service benchmark's
// generator sizes: the path where the budgeted branch-and-bound search
// runs first and the annealer takes over when it runs out. One op
// answers every job once.
func BenchmarkSolveBeyondExactLimit(b *testing.B) {
	space := gen.DefaultSpace()
	space.MaxStagesPerApp, space.MaxTotalStages, space.MaxProcs = 8, 10, 10
	var jobs []gen.Scenario
	for i := 0; len(jobs) < 64; i++ {
		sc := space.Sample(11, i)
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		if _, err := exact.CountMappings(&sc.Inst, exact.Options{Rule: sc.Req.Rule, Modes: exact.AllModes, Limit: 2_000_000}); err == nil {
			continue
		}
		if res, err := core.Solve(&sc.Inst, sc.Req); err == nil && res.Method != core.MethodExact && res.Method != core.MethodHeuristic {
			continue
		}
		jobs = append(jobs, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range jobs {
			_, err := core.Solve(&jobs[k].Inst, jobs[k].Req)
			if err != nil && !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, core.ErrUnresolved) {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(jobs)), "us/job")
}
