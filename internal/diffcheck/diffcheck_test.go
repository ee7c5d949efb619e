package diffcheck

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestDifferential is the acceptance gate of the differential harness: it
// checks a corpus of seeded instances spanning every (class, comm model,
// rule, criterion) combination. Exact solver paths must match brute force,
// every returned mapping must replay through the simulator at exactly its
// analytic metrics, and heuristic results must be bounded below by the
// exact optimum. With -short the corpus shrinks to 6 combination windows.
func TestDifferential(t *testing.T) {
	space := gen.DefaultSpace()
	n := 30 * space.CombinationCount() // 1080 instances
	if testing.Short() {
		n = 6 * space.CombinationCount()
	}
	sum, err := Run(space, 1, n, Options{})
	if err != nil {
		t.Fatalf("differential corpus failed:\n%v", err)
	}
	if sum.Checked != n {
		t.Fatalf("checked %d of %d scenarios", sum.Checked, n)
	}
	if want := space.CombinationCount(); len(sum.Combos) != want {
		t.Errorf("covered %d combinations, want %d: %v", len(sum.Combos), want, sum.ComboNames())
	}
	if sum.Feasible == 0 || sum.Infeasible == 0 {
		t.Errorf("corpus must exercise both feasible and infeasible draws (feasible %d, infeasible %d)",
			sum.Feasible, sum.Infeasible)
	}
	if sum.OracleSkips > n/20 {
		t.Errorf("%d of %d oracle runs skipped (space cap too tight for the generator sizes)", sum.OracleSkips, n)
	}
	if sum.HeurChecked == 0 {
		t.Error("no forced-heuristic lower-bound checks ran")
	}
	// Plan equivalence must have run on every scenario: each compiled the
	// instance once and replayed 4 queries (2 distinct, each twice) that
	// were asserted bit-identical to fresh one-shot solves.
	if sum.PlanChecked != n {
		t.Errorf("plan-equivalence battery ran on %d of %d scenarios", sum.PlanChecked, n)
	}
	if want := 4 * n; sum.PlanQueries != want {
		t.Errorf("plan-equivalence replayed %d queries, want %d", sum.PlanQueries, want)
	}
	// Pruning equivalence skips only where the NoPrune reference walk
	// overruns the oracle limit; it must still run on the vast majority.
	if sum.PruneChecked < n-n/10 {
		t.Errorf("pruned-vs-NoPrune equivalence ran on %d of %d scenarios", sum.PruneChecked, n)
	}
	// The corpus must actually route through the paper's polynomial
	// algorithms, not only the exhaustive fallback.
	poly := 0
	for _, m := range []core.Method{
		core.MethodGreedyBinarySearch, core.MethodDynProgAlloc, core.MethodEnergyDP,
		core.MethodMatching, core.MethodTrivial, core.MethodUniModalBudget,
	} {
		poly += sum.Methods[m]
	}
	if poly == 0 {
		t.Errorf("no polynomial dispatch path exercised: %v", sum.Methods)
	}
	if sum.Methods[core.MethodExact] == 0 {
		t.Errorf("exhaustive fallback never exercised: %v", sum.Methods)
	}
	t.Logf("checked %d scenarios: %d feasible, %d infeasible, %d oracle skips, %d/%d heuristic checks missed, %d plan queries, methods %v",
		sum.Checked, sum.Feasible, sum.Infeasible, sum.OracleSkips, sum.HeurMisses, sum.HeurChecked, sum.PlanQueries, sum.Methods)
}

// TestReplayFlagsPlantedBugs asserts the consistency oracle actually
// detects corrupted results: a wrong reported value, wrong metrics, and an
// out-of-bounds mapping must each fail the replay.
func TestReplayFlagsPlantedBugs(t *testing.T) {
	space := gen.DefaultSpace()
	var sc gen.Scenario
	var res core.Result
	found := false
	for i := 0; i < 200 && !found; i++ {
		sc = space.Sample(5, i)
		r, err := core.Solve(&sc.Inst, sc.Req)
		if err == nil {
			res, found = r, true
		}
	}
	if !found {
		t.Fatal("no feasible scenario in the first 200 draws")
	}
	if err := replay(&sc, &res, Options{}); err != nil {
		t.Fatalf("genuine result must replay cleanly: %v", err)
	}

	wrongValue := res
	wrongValue.Value = res.Value*2 + 1
	if err := replay(&sc, &wrongValue, Options{}); err == nil {
		t.Error("replay accepted a corrupted objective value")
	}

	wrongMetrics := res
	wrongMetrics.Metrics.Energy = res.Metrics.Energy + 1
	if err := replay(&sc, &wrongMetrics, Options{}); err == nil {
		t.Error("replay accepted corrupted metrics")
	}

	wrongMapping := res
	wrongMapping.Mapping = res.Mapping.Clone()
	if len(wrongMapping.Mapping.Apps) > 0 && len(wrongMapping.Mapping.Apps[0].Intervals) > 0 {
		// Point two intervals at the same processor-mode pair twice by
		// duplicating the first interval's processor onto itself with an
		// impossible stage range.
		wrongMapping.Mapping.Apps[0].Intervals[0].To = -1
		if err := replay(&sc, &wrongMapping, Options{}); err == nil {
			t.Error("replay accepted an invalid mapping")
		}
	}
}

// TestBruteForceMotivatingExample pins the brute-force oracle itself to the
// paper's Section 2 ground truth.
func TestBruteForceMotivatingExample(t *testing.T) {
	inst := pipeline.MotivatingExample()
	cases := []struct {
		name string
		req  core.Request
		want float64
	}{
		{"period", core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}, 1},
		{"latency", core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Latency}, 2.75},
		{"energy|T<=2", core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: []float64{2, 2}}, 46},
	}
	for _, c := range cases {
		got, err := bruteForce(&inst, c.req, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: brute force %g, paper %g", c.name, got, c.want)
		}
	}
}

// TestRunDeterministic asserts two identical runs aggregate identically.
func TestRunDeterministic(t *testing.T) {
	space := gen.DefaultSpace()
	a, errA := Run(space, 9, 40, Options{})
	b, errB := Run(space, 9, 40, Options{})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if a.Checked != b.Checked || a.Feasible != b.Feasible || a.Infeasible != b.Infeasible ||
		a.OracleSkips != b.OracleSkips || a.HeurChecked != b.HeurChecked || a.HeurMisses != b.HeurMisses {
		t.Errorf("summaries differ:\n%+v\n%+v", a, b)
	}
}

// TestBeyondExactLimit is the oracle past the exact limit: 3000 draws of
// LargeSpace, where some NP-hard problems are too large for brute force.
// Every "infeasible" answer must survive a branch-and-bound search with
// no leaf limit, and every degraded value must be no better than the
// branch-and-bound optimum. With -short it checks the first 600 draws.
func TestBeyondExactLimit(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	sum, err := Beyond(LargeSpace(), 11, n, Options{})
	if err != nil {
		t.Fatalf("oracle past the exact limit: %d failures:\n%v", sum.Failures, err)
	}
	if sum.Infeasible == 0 || sum.DegradedChecked == 0 {
		t.Errorf("corpus must exercise infeasible and degraded answers: %+v", sum)
	}
	t.Logf("%+v", sum)
}
