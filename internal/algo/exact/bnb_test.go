package exact

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// twoStageApp builds a single two-stage application instance on the given
// platform.
func twoStageApp(plat pipeline.Platform) pipeline.Instance {
	return pipeline.Instance{
		Apps: []pipeline.Application{{
			In:     1,
			Stages: []pipeline.Stage{{Work: 2, Out: 1}, {Work: 3, Out: 1}},
		}},
		Platform: plat,
		Energy:   pipeline.DefaultEnergy,
	}
}

// TestSymmetryBreakingHomogeneous pins the exact search-effort counters on
// a platform of four identical processors: the blind space has 4*3 = 12
// one-to-one mappings, but with every processor in one equivalence class
// the branch-and-bound search visits a single leaf, skipping the 3
// alternatives at the first stage and the 2 at the second.
func TestSymmetryBreakingHomogeneous(t *testing.T) {
	inst := twoStageApp(pipeline.NewHomogeneousPlatform(4, []float64{1}, 1, 1))
	opt := Options{Rule: mapping.OneToOne, Modes: FastestOnly}
	goal := pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}

	pruned, err := Minimize(&inst, opt, goal)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if pruned.Stats.Classes != 1 {
		t.Errorf("homogeneous platform built %d classes, want 1", pruned.Stats.Classes)
	}
	if pruned.Stats.Leaves != 1 {
		t.Errorf("pruned search visited %d leaves, want 1", pruned.Stats.Leaves)
	}
	if pruned.Stats.SymSkipped != 5 {
		t.Errorf("symmetry breaking skipped %d placements, want 5 (3 at stage 0 + 2 at stage 1)",
			pruned.Stats.SymSkipped)
	}

	opt.NoPrune = true
	ref, err := Minimize(&inst, opt, goal)
	if err != nil {
		t.Fatalf("Minimize (NoPrune): %v", err)
	}
	if ref.Stats.Leaves != 12 {
		t.Errorf("NoPrune walk visited %d leaves, want the full 12", ref.Stats.Leaves)
	}
	if ref.Stats.SymSkipped != 0 {
		t.Errorf("NoPrune walk skipped %d placements by symmetry, want 0", ref.Stats.SymSkipped)
	}
	//lint:allow floatcmp pruning must preserve the optimum bit for bit
	if pruned.Value != ref.Value {
		t.Errorf("pruned value %v differs from NoPrune value %v", pruned.Value, ref.Value)
	}
}

// TestSymmetryBreakingHeterogeneous pins the counters on four processors
// with distinct speeds: every class is a singleton, so nothing is skipped
// by symmetry and the NoPrune walk still covers all 12 mappings.
func TestSymmetryBreakingHeterogeneous(t *testing.T) {
	plat := pipeline.NewCommHomogeneousPlatform([][]float64{{1}, {2}, {3}, {4}}, 1, 1)
	inst := twoStageApp(plat)
	opt := Options{Rule: mapping.OneToOne, Modes: FastestOnly}
	goal := pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}

	pruned, err := Minimize(&inst, opt, goal)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if pruned.Stats.Classes != 4 {
		t.Errorf("distinct-speed platform built %d classes, want 4 singletons", pruned.Stats.Classes)
	}
	if pruned.Stats.SymSkipped != 0 {
		t.Errorf("singleton classes skipped %d placements, want 0", pruned.Stats.SymSkipped)
	}

	opt.NoPrune = true
	ref, err := Minimize(&inst, opt, goal)
	if err != nil {
		t.Fatalf("Minimize (NoPrune): %v", err)
	}
	if ref.Stats.Leaves != 12 {
		t.Errorf("NoPrune walk visited %d leaves, want the full 12", ref.Stats.Leaves)
	}
	//lint:allow floatcmp pruning must preserve the optimum bit for bit
	if pruned.Value != ref.Value {
		t.Errorf("pruned value %v differs from NoPrune value %v", pruned.Value, ref.Value)
	}
}

// randomInstance draws a small instance: 1-2 applications of 1-3 stages on
// 3-5 processors with 1-2 modes, occasionally with identical processors so
// symmetry classes are exercised.
func randomInstance(rng *rand.Rand) pipeline.Instance {
	apps := make([]pipeline.Application, 1+rng.Intn(2))
	for a := range apps {
		stages := make([]pipeline.Stage, 1+rng.Intn(3))
		for s := range stages {
			stages[s] = pipeline.Stage{
				Work: 1 + float64(rng.Intn(9)),
				Out:  float64(rng.Intn(4)), // zero-volume links happen
			}
		}
		apps[a] = pipeline.Application{
			In:     float64(rng.Intn(3)),
			Stages: stages,
			Weight: 1 + float64(rng.Intn(3)),
		}
	}
	p := 3 + rng.Intn(3)
	speedSets := make([][]float64, p)
	for u := range speedSets {
		if rng.Intn(2) == 0 && u > 0 {
			speedSets[u] = speedSets[u-1] // duplicate: interchangeable pair
			continue
		}
		modes := 1 + rng.Intn(2)
		set := make([]float64, modes)
		base := 1 + float64(rng.Intn(4))
		for m := range set {
			set[m] = base + float64(m)
		}
		speedSets[u] = set
	}
	plat := pipeline.NewCommHomogeneousPlatform(speedSets, 1+float64(rng.Intn(3)), len(apps))
	return pipeline.Instance{Apps: apps, Platform: plat, Energy: pipeline.DefaultEnergy}
}

// TestMinimizeMatchesNoPruneRandomized cross-checks the branch-and-bound
// search against the NoPrune reference walk on randomized instances across
// every objective, rule, model and bound shape: identical values bit for
// bit, identical feasibility verdicts.
func TestMinimizeMatchesNoPruneRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		inst, opt, goal := randomProblem(rng)
		pruned, perr := Minimize(&inst, opt, goal)
		opt.NoPrune = true
		ref, rerr := Minimize(&inst, opt, goal)

		label := fmt.Sprintf("trial %d (rule %v model %v obj %d bounds %v/%v budget %g)",
			trial, opt.Rule, goal.Model, goal.Objective, goal.PeriodBounds != nil, goal.LatencyBounds != nil, goal.EnergyBudget)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%s: pruned err %v, NoPrune err %v", label, perr, rerr)
		}
		if perr != nil {
			if perr.Error() != rerr.Error() {
				t.Fatalf("%s: pruned err %q, NoPrune err %q", label, perr, rerr)
			}
			continue
		}
		//lint:allow floatcmp pruning must preserve the optimum bit for bit
		if pruned.Value != ref.Value {
			t.Fatalf("%s: pruned value %v differs from NoPrune value %v (stats %+v)",
				label, pruned.Value, ref.Value, pruned.Stats)
		}
		if pruned.Stats.Leaves > ref.Stats.Leaves {
			t.Fatalf("%s: pruned search visited %d leaves, more than the full walk's %d",
				label, pruned.Stats.Leaves, ref.Stats.Leaves)
		}
	}
}

// randomProblem draws a randomInstance and a problem on it: rule, model,
// objective, optional period, latency and energy bounds, and a mode
// policy (FastestOnly only where energy plays no part).
func randomProblem(rng *rand.Rand) (pipeline.Instance, Options, pipeline.Goal) {
	inst := randomInstance(rng)
	rule := mapping.Interval
	if rng.Intn(2) == 0 {
		rule = mapping.OneToOne
	}
	model := pipeline.Overlap
	if rng.Intn(2) == 0 {
		model = pipeline.NoOverlap
	}
	goal := pipeline.Goal{Objective: pipeline.Criterion(rng.Intn(3)), Model: model}
	if rng.Intn(2) == 0 {
		goal.PeriodBounds = uniform(len(inst.Apps), 2+6*rng.Float64())
	}
	if rng.Intn(2) == 0 {
		goal.LatencyBounds = uniform(len(inst.Apps), 5+20*rng.Float64())
	}
	if rng.Intn(3) == 0 {
		goal.EnergyBudget = 5 + 40*rng.Float64()
	}
	modes := AllModes
	if goal.Objective != pipeline.Energy && goal.EnergyBudget == 0 && rng.Intn(2) == 0 {
		modes = FastestOnly
	}
	return inst, Options{Rule: rule, Modes: modes}, goal
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestCountMappingsDPMatchesEnumeration cross-checks the memoized counting
// DP against a literal enumeration count on randomized instances under both
// rules and both mode policies.
func TestCountMappingsDPMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		inst := randomInstance(rng)
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			for _, modes := range []ModePolicy{AllModes, FastestOnly} {
				opt := Options{Rule: rule, Modes: modes}
				var brute int64
				if err := Enumerate(&inst, opt, func(*mapping.Mapping) error { brute++; return nil }); err != nil {
					t.Fatalf("trial %d: Enumerate: %v", trial, err)
				}
				got, ok := countDP(&inst, opt)
				if !ok {
					t.Fatalf("trial %d: countDP rejected a tiny instance", trial)
				}
				if got != brute {
					t.Fatalf("trial %d (rule %v modes %v): DP counts %d mappings, enumeration %d",
						trial, rule, modes, got, brute)
				}
				n, err := CountMappings(&inst, opt)
				if err != nil || n != brute {
					t.Fatalf("trial %d: CountMappings = %d, %v; want %d, nil", trial, n, err, brute)
				}
			}
		}
	}
}

// TestCountMappingsSaturates pins the saturating arithmetic: a count
// overflowing int64 must report ErrSearchSpace, not wrap around.
func TestCountMappingsSaturates(t *testing.T) {
	if satAdd(math.MaxInt64, 1) != math.MaxInt64 {
		t.Error("satAdd must clamp at MaxInt64")
	}
	if satMul(math.MaxInt64/2, 3) != math.MaxInt64 {
		t.Error("satMul must clamp at MaxInt64")
	}
	if satMul(0, math.MaxInt64) != 0 {
		t.Error("satMul with a zero factor must be 0")
	}
}

// TestMinimizeSearchSpaceLimit pins that the leaf budget still applies to
// the NoPrune walk (which visits every mapping).
func TestMinimizeSearchSpaceLimit(t *testing.T) {
	inst := twoStageApp(pipeline.NewHomogeneousPlatform(4, []float64{1}, 1, 1))
	opt := Options{Rule: mapping.OneToOne, Modes: FastestOnly, Limit: 5, NoPrune: true}
	_, err := Minimize(&inst, opt, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
	if err != ErrSearchSpace {
		//lint:allow errclass test pins the exact sentinel identity
		t.Fatalf("Minimize with limit 5 over a 12-leaf space returned %v, want ErrSearchSpace", err)
	}
}

// TestBudget pins the work budget on randomized problems. Budget 0 is the
// unbounded search, and so is a budget of exactly the placements it
// tries; one placement less runs out. A search that runs out returns
// ErrSearchSpace with its incumbent, if it has one: a valid mapping within
// every bound whose objective is the reported value, never below the
// optimum and never worse than the incumbent of a smaller budget. The
// same budget gives the same outcome on every run.
func TestBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	exhausted, incumbents := 0, 0
	for trial := 0; trial < 300; trial++ {
		inst, opt, goal := randomProblem(rng)
		full, ferr := Minimize(&inst, opt, goal)
		if ferr != nil && ferr != ErrInfeasible {
			//lint:allow errclass test pins the exact sentinel identity
			t.Fatalf("trial %d: unbounded search returned %v", trial, ferr)
		}
		tried := full.Stats.Tried
		opt.Budget = tried
		if got, err := Minimize(&inst, opt, goal); err != ferr || !reflect.DeepEqual(got, full) {
			//lint:allow errclass test pins the exact sentinel identity
			t.Fatalf("trial %d: budget %d (what the search tries) gave %+v, %v; want %+v, %v", trial, tried, got, err, full, ferr)
		}
		prev := math.Inf(1)
		for _, b := range []int64{1, tried / 4, tried / 2, tried - 1} {
			if b < 1 || b >= tried {
				continue
			}
			opt.Budget = b
			got, err := Minimize(&inst, opt, goal)
			if err != ErrSearchSpace || got.Stats.Tried != b {
				//lint:allow errclass test pins the exact sentinel identity
				t.Fatalf("trial %d: budget %d of %d returned %v after %d placements, want ErrSearchSpace after %d", trial, b, tried, err, got.Stats.Tried, b)
			}
			exhausted++
			if again, err2 := Minimize(&inst, opt, goal); err2 != err || !reflect.DeepEqual(again, got) {
				t.Fatalf("trial %d: budget %d gave %+v, then %+v", trial, b, got, again)
			}
			if len(got.Mapping.Apps) == 0 {
				if !math.IsInf(prev, 1) {
					t.Fatalf("trial %d: budget %d lost the incumbent a smaller budget found", trial, b)
				}
				continue
			}
			incumbents++
			checkIncumbent(t, &inst, opt, goal, got)
			if ferr != nil || got.Value < full.Value || got.Value > prev {
				t.Fatalf("trial %d: budget %d incumbent %v, optimum %v (%v), smaller budget's incumbent %v", trial, b, got.Value, full.Value, ferr, prev)
			}
			prev = got.Value
		}
	}
	if exhausted == 0 || incumbents == 0 {
		t.Fatalf("%d budgets ran out, %d with an incumbent: the draws exercise nothing", exhausted, incumbents)
	}
}

// checkIncumbent asserts sol's mapping is valid under opt's rule, meets
// every bound of goal, and evaluates to sol.Value bit for bit.
func checkIncumbent(t *testing.T, inst *pipeline.Instance, opt Options, goal pipeline.Goal, sol Solution) {
	t.Helper()
	m := &sol.Mapping
	if err := m.Validate(inst, opt.Rule); err != nil {
		t.Fatalf("incumbent invalid: %v", err)
	}
	mt := mapping.Evaluate(inst, m, goal.Model)
	for a := range inst.Apps {
		if goal.PeriodBounds != nil && !fmath.LE(mt.AppPeriods[a], goal.PeriodBounds[a]) ||
			goal.LatencyBounds != nil && !fmath.LE(mt.AppLatencies[a], goal.LatencyBounds[a]) {
			t.Fatalf("incumbent violates app %d's bounds: %+v", a, mt)
		}
	}
	if goal.EnergyBudget > 0 && !fmath.LE(mt.Energy, goal.EnergyBudget) {
		t.Fatalf("incumbent energy %v over budget %v", mt.Energy, goal.EnergyBudget)
	}
	want := map[pipeline.Criterion]float64{pipeline.Period: mt.Period, pipeline.Latency: mt.Latency, pipeline.Energy: mt.Energy}[goal.Objective]
	//lint:allow floatcmp the search's incremental value must equal a fresh evaluation bit for bit
	if sol.Value != want {
		t.Fatalf("incumbent value %v, its mapping evaluates to %v", sol.Value, want)
	}
}
