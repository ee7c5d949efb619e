package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestMotivatingExampleHeadlineNumbers reproduces all four Section 2
// numbers by exhaustive search over interval mappings: this is experiment
// FIG1 of EXPERIMENTS.md.
func TestMotivatingExampleHeadlineNumbers(t *testing.T) {
	inst := pipeline.MotivatingExample()

	sol, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
	if err != nil {
		t.Fatalf("MinPeriod: %v", err)
	}
	if !fmath.EQ(sol.Value, 1) {
		t.Errorf("optimal period = %g, want 1 (Equation 1)", sol.Value)
	}

	sol, err = Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
	if err != nil {
		t.Fatalf("MinLatency: %v", err)
	}
	if !fmath.EQ(sol.Value, 2.75) {
		t.Errorf("optimal latency = %g, want 2.75 (Equation 2)", sol.Value)
	}

	sol, err = Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy})
	if err != nil {
		t.Fatalf("MinEnergy: %v", err)
	}
	if !fmath.EQ(sol.Value, 10) {
		t.Errorf("minimum energy = %g, want 10", sol.Value)
	}

	sol, err = Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{2, 2}})
	if err != nil {
		t.Fatalf("MinEnergyGivenPeriod: %v", err)
	}
	if !fmath.EQ(sol.Value, 46) {
		t.Errorf("energy under period <= 2 is %g, want 46", sol.Value)
	}
	// The found mapping must actually satisfy the bound.
	if tp := mapping.Period(&inst, &sol.Mapping, pipeline.Overlap); !fmath.LE(tp, 2) {
		t.Errorf("witness mapping has period %g > 2", tp)
	}
}

func TestMinEnergyUnconstrainedPeriod(t *testing.T) {
	// The energy-minimal mapping of the example runs App2 on P3's lowest
	// mode, giving period 14.
	inst := pipeline.MotivatingExample()
	sol, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy})
	if err != nil {
		t.Fatal(err)
	}
	if got := mapping.Period(&inst, &sol.Mapping, pipeline.Overlap); !fmath.EQ(got, 14) {
		t.Errorf("energy-minimal mapping period = %g, want 14", got)
	}
}

func TestEnumerateVisitsOnlyValidMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 3 + rng.Intn(2), Modes: 1 + rng.Intn(2),
			Class: pipeline.FullyHeterogeneous, MaxWork: 5, MaxData: 3, MaxSpeed: 5, MaxBandwidth: 3,
		}
		inst := workload.MustInstance(rng, cfg)
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			if rule == mapping.OneToOne && inst.TotalStages() > inst.Platform.NumProcessors() {
				continue
			}
			count := 0
			err := Enumerate(&inst, Options{Rule: rule, Modes: AllModes}, func(m *mapping.Mapping) error {
				count++
				return m.Validate(&inst, rule)
			})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if count == 0 {
				t.Fatalf("trial %d (%v): no mappings enumerated", trial, rule)
			}
		}
	}
}

func TestCountMappingsTinyCase(t *testing.T) {
	// One application with 2 stages, 2 processors, uni-modal.
	// Interval mappings: whole app on P0 or P1 (2), or split across the
	// two processors in 2 orders (2) = 4.
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{workload.Application(rand.New(rand.NewSource(1)), "a", 2, 3, 2)},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	n, err := CountMappings(&inst, Options{Rule: mapping.Interval, Modes: AllModes})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("CountMappings = %d, want 4", n)
	}
	n, err = CountMappings(&inst, Options{Rule: mapping.OneToOne, Modes: AllModes})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("one-to-one CountMappings = %d, want 2", n)
	}
	// With m modes per processor, counts scale by m^(enrolled processors).
	inst.Platform = pipeline.NewHomogeneousPlatform(2, []float64{1, 2, 3}, 1, 1)
	n, err = CountMappings(&inst, Options{Rule: mapping.Interval, Modes: AllModes})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*3+2*9 {
		t.Errorf("multi-modal CountMappings = %d, want 24", n)
	}
}

func TestSearchSpaceLimit(t *testing.T) {
	inst := workload.StreamingCenter(8)
	_, err := CountMappings(&inst, Options{Rule: mapping.Interval, Modes: AllModes, Limit: 100})
	if !errors.Is(err, ErrSearchSpace) {
		t.Errorf("expected ErrSearchSpace, got %v", err)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	inst := pipeline.MotivatingExample()
	_, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{0.01, 0.01}})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestParetoFrontProperties(t *testing.T) {
	inst := pipeline.MotivatingExample()
	front, err := ParetoFront(context.Background(), &inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// No point dominates another.
	for i := range front {
		for j := range front {
			if i != j && front[i].Dominates(front[j]) {
				t.Errorf("front point %d dominates %d", i, j)
			}
		}
	}
	// The extremes of the front match the single-criterion optima.
	bestT, bestE := math.Inf(1), math.Inf(1)
	for _, pt := range front {
		bestT = math.Min(bestT, pt.Period)
		bestE = math.Min(bestE, pt.Energy)
	}
	if !fmath.EQ(bestT, 1) {
		t.Errorf("front min period = %g, want 1", bestT)
	}
	if !fmath.EQ(bestE, 10) {
		t.Errorf("front min energy = %g, want 10", bestE)
	}
	// The Section 2 trade-off point (T=2, E=46) must be on the front.
	found := false
	for _, pt := range front {
		if fmath.EQ(pt.Period, 2) && fmath.EQ(pt.Energy, 46) {
			found = true
		}
	}
	if !found {
		t.Error("trade-off point (period 2, energy 46) missing from the Pareto front")
	}
	// Witness mappings must reproduce their point values.
	for i, pt := range front {
		mt := mapping.Evaluate(&inst, &pt.Mapping, pipeline.Overlap)
		if !fmath.EQ(mt.Period, pt.Period) || !fmath.EQ(mt.Energy, pt.Energy) || !fmath.EQ(mt.Latency, pt.Latency) {
			t.Errorf("front point %d: witness metrics %+v do not match point", i, mt)
		}
	}
}

func TestDominates(t *testing.T) {
	a := Point{Period: 1, Latency: 2, Energy: 3}
	b := Point{Period: 1, Latency: 2, Energy: 4}
	if !b.Dominates(a) == false || a.Dominates(a) {
		t.Error("dominance relation broken on equal/self comparisons")
	}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	c := Point{Period: 0.5, Latency: 9, Energy: 9}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("incomparable points reported as dominated")
	}
}

func TestTriCriteriaBoundsRespected(t *testing.T) {
	inst := pipeline.MotivatingExample()
	sol, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{2, 2}, LatencyBounds: []float64{6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for a := range inst.Apps {
		if tp := mapping.AppPeriod(&inst, &sol.Mapping, a, pipeline.Overlap); !fmath.LE(tp, 2) {
			t.Errorf("app %d period %g violates bound", a, tp)
		}
	}
	if l0 := mapping.AppLatency(&inst, &sol.Mapping, 0); !fmath.LE(l0, 6) {
		t.Errorf("app 0 latency %g violates bound 6", l0)
	}
	if l1 := mapping.AppLatency(&inst, &sol.Mapping, 1); !fmath.LE(l1, 8) {
		t.Errorf("app 1 latency %g violates bound 8", l1)
	}
	// Tightening the latency bound cannot decrease the optimal energy.
	sol2, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{2, 2}, LatencyBounds: []float64{4, 6}})
	if err == nil && fmath.LT(sol2.Value, sol.Value) {
		t.Errorf("tighter bounds gave lower energy: %g < %g", sol2.Value, sol.Value)
	}
}

func TestMinPeriodGivenLatencyEnergy(t *testing.T) {
	inst := pipeline.MotivatingExample()
	// With unlimited energy and loose latency this must equal the
	// unconstrained optimum 1.
	sol, err := Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap, LatencyBounds: []float64{100, 100}, EnergyBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(sol.Value, 1) {
		t.Errorf("period = %g, want 1", sol.Value)
	}
	// With an energy budget of 46 the best period is 2 (the Section 2
	// trade-off is optimal).
	sol, err = Minimize(context.Background(), &inst, Options{Rule: mapping.Interval, Modes: AllModes}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap, LatencyBounds: []float64{100, 100}, EnergyBudget: 46})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(sol.Value, 2) {
		t.Errorf("period under energy 46 = %g, want 2", sol.Value)
	}
}

func TestOneToOneNeedsEnoughProcessors(t *testing.T) {
	// 7 stages, 3 processors: no one-to-one mapping exists.
	inst := pipeline.MotivatingExample()
	n, err := CountMappings(&inst, Options{Rule: mapping.OneToOne, Modes: AllModes})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("one-to-one mappings counted on undersized platform: %d", n)
	}
}
