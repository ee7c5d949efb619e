package heur

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func smallHet(rng *rand.Rand, apps, procs, modes int) pipeline.Instance {
	cfg := workload.Config{
		Apps: apps, MinStages: 1, MaxStages: 3,
		Procs: procs, Modes: modes,
		Class: pipeline.FullyHeterogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6, MaxBandwidth: 3,
	}
	return workload.MustInstance(rng, cfg)
}

// TestHeurPeriodGapOnHetPlatforms measures the optimality gap of the
// heuristic on the NP-hard fully heterogeneous period problem. The
// heuristic must always be valid and never worse than 1.5x the optimum on
// these small instances, and usually optimal.
func TestHeurPeriodGapOnHetPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	optimalHits, trials := 0, 30
	for trial := 0; trial < trials; trial++ {
		inst := smallHet(rng, 1+rng.Intn(2), 3+rng.Intn(2), 1)
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		for _, rule := range []mapping.Rule{mapping.Interval, mapping.OneToOne} {
			if rule == mapping.OneToOne && inst.TotalStages() > inst.Platform.NumProcessors() {
				continue
			}
			goal := pipeline.Goal{Objective: pipeline.Period, Model: model}
			m, got, err := Minimize(rng, &inst, rule, goal, Options{Iters: 1500, Restarts: 2})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := m.Validate(&inst, rule); err != nil {
				t.Fatalf("trial %d: invalid mapping: %v", trial, err)
			}
			if !fmath.EQ(mapping.Period(&inst, &m, model), got) {
				t.Fatalf("trial %d: value/mapping mismatch", trial)
			}
			want, err := exact.Minimize(&inst, exact.Options{Rule: rule, Modes: exact.FastestOnly}, goal)
			if err != nil {
				t.Fatalf("trial %d oracle: %v", trial, err)
			}
			if fmath.LT(got, want.Value) {
				t.Fatalf("trial %d: heuristic %g beats the optimum %g — oracle bug", trial, got, want.Value)
			}
			if got > want.Value*1.5+fmath.Eps {
				t.Errorf("trial %d (%v/%v): heuristic %g vs optimum %g exceeds 1.5x gap", trial, rule, model, got, want.Value)
			}
			if fmath.EQ(got, want.Value) {
				optimalHits++
			}
		}
	}
	if optimalHits < trials {
		t.Logf("heuristic optimal on %d problem instances (2 rules x %d trials)", optimalHits, trials)
	}
	if optimalHits < trials/2 {
		t.Errorf("heuristic optimal on only %d instances; expected at least %d", optimalHits, trials/2)
	}
}

// TestHeurLatencyGap does the same for the NP-hard latency problems.
func TestHeurLatencyGap(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		inst := smallHet(rng, 1+rng.Intn(2), 4, 1)
		goal := pipeline.Goal{Objective: pipeline.Latency}
		m, got, err := Minimize(rng, &inst, mapping.Interval, goal, Options{Iters: 1500, Restarts: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := m.Validate(&inst, mapping.Interval); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := exact.Minimize(&inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, goal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fmath.LT(got, want.Value) {
			t.Fatalf("trial %d: heuristic %g beats optimum %g", trial, got, want.Value)
		}
		if got > want.Value*1.5+fmath.Eps {
			t.Errorf("trial %d: latency gap too large: %g vs %g", trial, got, want.Value)
		}
	}
}

// TestHeurTriCriteria exercises the NP-hard multi-modal tri-criteria
// problem (Theorem 26): energy minimization under period and latency
// bounds, compared against the exact solver.
func TestHeurTriCriteria(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	solved := 0
	for trial := 0; trial < 20; trial++ {
		inst := smallHet(rng, 1, 3, 2)
		model := pipeline.Overlap
		// Derive workable bounds from the period-optimal mapping.
		opt, err := exact.Minimize(&inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		perBounds := []float64{opt.Value * 1.5}
		latBounds := []float64{mapping.Latency(&inst, &opt.Mapping) * 2}
		goal := pipeline.Goal{Objective: pipeline.Energy, Model: model, PeriodBounds: perBounds, LatencyBounds: latBounds}
		want, werr := exact.Minimize(&inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, goal)
		m, got, err := Minimize(rng, &inst, mapping.Interval, goal, Options{Iters: 2500, Restarts: 3})
		if werr != nil {
			continue // bound infeasible: heuristic may legitimately fail too
		}
		if err != nil || math.IsInf(got, 1) {
			t.Errorf("trial %d: heuristic failed on feasible instance: %v, %g", trial, err, got)
			continue
		}
		solved++
		if err := m.Validate(&inst, mapping.Interval); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fmath.LT(got, want.Value) {
			t.Fatalf("trial %d: heuristic energy %g beats optimum %g", trial, got, want.Value)
		}
		if got > want.Value*1.5+fmath.Eps {
			t.Errorf("trial %d: energy gap too large: %g vs optimum %g", trial, got, want.Value)
		}
		for a := range inst.Apps {
			if tp := mapping.AppPeriod(&inst, &m, a, model); !fmath.LE(tp, perBounds[a]) {
				t.Errorf("trial %d: period bound violated", trial)
			}
			if l := mapping.AppLatency(&inst, &m, a); !fmath.LE(l, latBounds[a]) {
				t.Errorf("trial %d: latency bound violated", trial)
			}
		}
	}
	if solved == 0 {
		t.Fatal("no feasible tri-criteria instances generated")
	}
}

// TestHeurDeterministicWithSeed: two runs with the same seed agree.
func TestHeurDeterministicWithSeed(t *testing.T) {
	inst := workload.StreamingCenter(6)
	run := func() float64 {
		rng := rand.New(rand.NewSource(99))
		_, v, err := Minimize(rng, &inst, mapping.Interval, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}, Options{Iters: 800, Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic heuristic: %g vs %g", a, b)
	}
}

// TestHeurOnLargePlatform: the heuristic must run on sizes far beyond the
// oracle and produce a sane result (period at least the trivial lower
// bound: bottleneck stage work over fastest speed).
func TestHeurOnLargePlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	cfg := workload.Config{
		Apps: 4, MinStages: 4, MaxStages: 10,
		Procs: 24, Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 20, MaxData: 8, MaxSpeed: 10, MaxBandwidth: 5,
	}
	inst := workload.MustInstance(rng, cfg)
	m, got, err := Minimize(rng, &inst, mapping.Interval, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}, Options{Iters: 3000, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(&inst, mapping.Interval); err != nil {
		t.Fatal(err)
	}
	var maxSpeed float64
	for i := range inst.Platform.Processors {
		maxSpeed = math.Max(maxSpeed, inst.Platform.Processors[i].MaxSpeed())
	}
	lower := 0.0
	for a := range inst.Apps {
		for _, st := range inst.Apps[a].Stages {
			lower = math.Max(lower, inst.Apps[a].EffectiveWeight()*st.Work/maxSpeed)
		}
	}
	if fmath.LT(got, lower) {
		t.Errorf("heuristic period %g below the bottleneck lower bound %g", got, lower)
	}
}

func TestHeurErrors(t *testing.T) {
	inst := pipeline.MotivatingExample() // 7 stages, 3 procs
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Minimize(rng, &inst, mapping.OneToOne, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}, Options{}); err == nil {
		t.Error("one-to-one on undersized platform accepted")
	}
	tiny := pipeline.Instance{
		Apps: []pipeline.Application{
			pipeline.NewUniformApplication("a", 2, 1),
			pipeline.NewUniformApplication("b", 2, 1),
		},
		Platform: pipeline.NewHomogeneousPlatform(1, []float64{1}, 1, 2),
		Energy:   pipeline.DefaultEnergy,
	}
	if _, _, err := Minimize(rng, &tiny, mapping.Interval, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}, Options{}); err == nil {
		t.Error("more applications than processors accepted")
	}
}

// TestSpeedDownReachesSlowModes: with loose bounds, the tri-criteria
// heuristic must settle in low modes (energy close to the static floor).
func TestSpeedDownReachesSlowModes(t *testing.T) {
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 3, 1)},
		Platform: pipeline.NewCommHomogeneousPlatform([][]float64{{1, 8}, {1, 8}, {1, 8}}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	rng := rand.New(rand.NewSource(5))
	goal := pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{100}, LatencyBounds: []float64{100}}
	m, e, err := Minimize(rng, &inst, mapping.Interval, goal, Options{Iters: 1500, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: whole app on one processor at speed 1 => energy 1.
	if !fmath.EQ(e, 1) {
		t.Errorf("energy = %g, want 1 (mapping %v)", e, m.String())
	}
}

// TestAnnealingImprovesOnGreedy: across a batch of het instances, the full
// pipeline (greedy + annealing + polish) must be at least as good as the
// deterministic greedy construction alone on every instance, and strictly
// better on some — the ablation justifying the annealing stage.
func TestAnnealingImprovesOnGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	strictly := 0
	for trial := 0; trial < 15; trial++ {
		cfg := workload.Config{
			Apps: 2, MinStages: 3, MaxStages: 5, Procs: 8, Modes: 2,
			Class: pipeline.FullyHeterogeneous, MaxWork: 10, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
		}
		inst := workload.MustInstance(rng, cfg)
		obj := func(m *mapping.Mapping) float64 { return mapping.Period(&inst, m, pipeline.Overlap) }
		greedyOnly, err := initial(rand.New(rand.NewSource(1)), &inst, mapping.Interval, 0)
		if err != nil {
			t.Fatal(err)
		}
		greedyV := obj(&greedyOnly)
		_, fullV, err := Minimize(rand.New(rand.NewSource(1)), &inst, mapping.Interval, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}, Options{Iters: 2000, Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fmath.GT(fullV, greedyV) {
			t.Fatalf("trial %d: full pipeline %g worse than greedy alone %g", trial, fullV, greedyV)
		}
		if fmath.LT(fullV, greedyV) {
			strictly++
		}
	}
	if strictly == 0 {
		t.Error("annealing never improved on the greedy construction across 15 instances")
	}
}

// TestStartIsKeptAndNeverWorsened: a search started from a mapping never
// answers worse than that mapping scores, even with a single annealing
// step, and leaves the caller's mapping untouched. Started from the
// optimum it answers the optimum.
func TestStartIsKeptAndNeverWorsened(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		inst := smallHet(rng, 1+rng.Intn(2), 4, 2)
		goal := pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap}
		want, err := exact.Minimize(&inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, goal)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		start := want.Mapping.Clone()
		m, got, err := Minimize(rng, &inst, mapping.Interval, goal, Options{Iters: 1, Restarts: 1, Start: start})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(got, want.Value) || !fmath.EQ(mapping.Energy(&inst, &m), got) {
			t.Fatalf("trial %d: started from the optimum %g, answered %g", trial, want.Value, got)
		}
		if !reflect.DeepEqual(start, want.Mapping) {
			t.Fatalf("trial %d: the start mapping was modified", trial)
		}
	}
}
