package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func TestSolveMotivatingExample(t *testing.T) {
	inst := pipeline.MotivatingExample()

	// Period minimization: comm-hom platform + interval rule is NP-hard
	// territory, but the instance is small so the exact fallback fires.
	res, err := Solve(&inst, Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: Period})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 1) {
		t.Errorf("period = %g, want 1", res.Value)
	}
	if res.Method != MethodExact || !res.Optimal {
		t.Errorf("method = %v optimal=%v, want exact/true", res.Method, res.Optimal)
	}

	// Latency: comm-hom interval is polynomial (Theorem 12).
	res, err = Solve(&inst, Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 2.75) {
		t.Errorf("latency = %g, want 2.75", res.Value)
	}
	if res.Method != MethodGreedyBinarySearch || !res.Optimal {
		t.Errorf("method = %v optimal=%v, want Thm 12/true", res.Method, res.Optimal)
	}

	// Energy under period bound 2 (the Section 2 trade-off).
	res, err = Solve(&inst, Request{
		Rule: mapping.Interval, Model: pipeline.Overlap, Objective: Energy,
		PeriodBounds: UniformBounds(&inst, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 46) {
		t.Errorf("energy = %g, want 46", res.Value)
	}
}

func TestSolveDispatchesPolynomialCells(t *testing.T) {
	rng := rand.New(rand.NewSource(61))

	// Table 1, period one-to-one on comm-hom: Theorem 1.
	cfg := workload.Config{Apps: 1, MinStages: 2, MaxStages: 3, Procs: 1, Modes: 2,
		Class: pipeline.CommHomogeneous, MaxWork: 5, MaxData: 3, MaxSpeed: 5}
	inst := workload.MustInstance(rng, cfg)
	cfg.Procs = inst.TotalStages() + 1
	inst.Platform = workload.Platform(rng, cfg)
	res, err := Solve(&inst, Request{Rule: mapping.OneToOne, Objective: Period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodGreedyBinarySearch {
		t.Errorf("one-to-one period on comm-hom dispatched to %v", res.Method)
	}

	// Table 1, period interval on fully-hom: Theorem 3.
	hom := workload.MustInstance(rng, workload.Config{Apps: 2, MinStages: 2, MaxStages: 3,
		Procs: 5, Modes: 2, Class: pipeline.FullyHomogeneous, MaxWork: 5, MaxData: 3, MaxSpeed: 5})
	res, err = Solve(&hom, Request{Rule: mapping.Interval, Objective: Period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodDynProgAlloc {
		t.Errorf("interval period on fully-hom dispatched to %v", res.Method)
	}

	// Table 2, period/energy interval on fully-hom: Theorems 18+21.
	res, err = Solve(&hom, Request{Rule: mapping.Interval, Objective: Energy,
		PeriodBounds: UniformBounds(&hom, res.Value*1.2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodEnergyDP {
		t.Errorf("interval energy on fully-hom dispatched to %v", res.Method)
	}

	// Table 2, period/energy one-to-one on comm-hom: Theorem 19.
	res, err = Solve(&inst, Request{Rule: mapping.OneToOne, Objective: Energy,
		PeriodBounds: UniformBounds(&inst, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodMatching {
		t.Errorf("one-to-one energy on comm-hom dispatched to %v", res.Method)
	}
}

func TestSolveTriCriteriaUniModal(t *testing.T) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{
			pipeline.NewUniformApplication("a", 3, 2),
			pipeline.NewUniformApplication("b", 2, 2),
		},
		Platform: pipeline.NewHomogeneousPlatform(5, []float64{2}, 1, 2),
		Energy:   pipeline.DefaultEnergy,
	}
	res, err := Solve(&inst, Request{
		Rule: mapping.Interval, Objective: Energy,
		PeriodBounds:  UniformBounds(&inst, 3),
		LatencyBounds: UniformBounds(&inst, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodUniModalBudget {
		t.Errorf("uni-modal tri-criteria dispatched to %v", res.Method)
	}
	want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: UniformBounds(&inst, 3), LatencyBounds: UniformBounds(&inst, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, want.Value) {
		t.Errorf("tri-criteria energy %g, oracle %g", res.Value, want.Value)
	}
}

func TestSolveHeuristicFallbackOnLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	cfg := workload.Config{Apps: 3, MinStages: 4, MaxStages: 7, Procs: 14, Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 12, MaxData: 6, MaxSpeed: 9, MaxBandwidth: 4}
	inst := workload.MustInstance(rng, cfg)
	res, err := Solve(&inst, Request{Rule: mapping.Interval, Objective: Period,
		ExactLimit: 10_000, HeurIters: 600, HeurRestarts: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodHeuristic || res.Optimal {
		t.Errorf("large het instance dispatched to %v (optimal=%v)", res.Method, res.Optimal)
	}
	if err := res.Mapping.Validate(&inst, mapping.Interval); err != nil {
		t.Error(err)
	}
}

func TestSolveExactFallbackOnSmallHet(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := workload.Config{Apps: 1, MinStages: 2, MaxStages: 3, Procs: 3, Modes: 1,
		Class: pipeline.FullyHeterogeneous, MaxWork: 6, MaxData: 3, MaxSpeed: 5, MaxBandwidth: 3}
	inst := workload.MustInstance(rng, cfg)
	res, err := Solve(&inst, Request{Rule: mapping.Interval, Objective: Period})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodExact || !res.Optimal {
		t.Errorf("small het instance dispatched to %v", res.Method)
	}
	want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, want.Value) {
		t.Errorf("period %g, oracle %g", res.Value, want.Value)
	}
}

func TestSolveErrors(t *testing.T) {
	inst := pipeline.MotivatingExample()
	if _, err := Solve(&inst, Request{Objective: Energy}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("energy without period bounds: %v", err)
	}
	if _, err := Solve(&inst, Request{Objective: Period, PeriodBounds: []float64{1}}); err == nil {
		t.Error("mismatched bounds length accepted")
	}
	if _, err := Solve(&inst, Request{Rule: mapping.Interval, Objective: Energy, PeriodBounds: []float64{0.01, 0.01}}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible bounds: %v", err)
	}
	bad := inst.Clone()
	bad.Apps[0].Stages[0].Work = -1
	if _, err := Solve(&bad, Request{Objective: Period}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestTrivialOneToOneBoundsChecks(t *testing.T) {
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 2, 4)},
		Platform: pipeline.NewHomogeneousPlatform(3, []float64{2}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	// Period of every one-to-one mapping is 2 (work 4 / speed 2).
	res, err := Solve(&inst, Request{Rule: mapping.OneToOne, Objective: Latency,
		PeriodBounds: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodTrivial || !fmath.EQ(res.Value, 4) {
		t.Errorf("trivial one-to-one: method %v value %g", res.Method, res.Value)
	}
	if _, err := Solve(&inst, Request{Rule: mapping.OneToOne, Objective: Latency,
		PeriodBounds: []float64{1}}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible trivial bounds: %v", err)
	}
}

func TestUniformBounds(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Apps[0].Weight = 2
	b := UniformBounds(&inst, 4)
	if b[0] != 2 || b[1] != 4 {
		t.Errorf("UniformBounds = %v, want [2 4]", b)
	}
}

func TestStretchWeights(t *testing.T) {
	inst := pipeline.MotivatingExample()
	stretched, err := StretchWeights(&inst, Request{Rule: mapping.Interval, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	// Alone, App1's best latency is 1.75 (whole on P2 at speed 8:
	// 1/1 + 6/8), and App2's is 2.75 (also P2: 14/8 + 1/1).
	if !fmath.EQ(stretched.Apps[0].Weight, 1/1.75) {
		t.Errorf("App1 stretch weight = %g, want %g", stretched.Apps[0].Weight, 1/1.75)
	}
	if !fmath.EQ(stretched.Apps[1].Weight, 1/2.75) {
		t.Errorf("App2 stretch weight = %g, want %g", stretched.Apps[1].Weight, 1/2.75)
	}
	// Concurrently both applications want P2; the optimal max stretch
	// gives P2 to App2 (stretch 1) and sends App1 to a speed-6 processor:
	// latency 2, stretch 2/1.75 = 8/7.
	res, err := Solve(&stretched, Request{Rule: mapping.Interval, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 8.0/7.0) {
		t.Errorf("optimal stretch = %g, want %g", res.Value, 8.0/7.0)
	}
}

func TestSolvePeriodWithEnergyBudget(t *testing.T) {
	inst := pipeline.MotivatingExample()
	res, err := Solve(&inst, Request{Rule: mapping.Interval, Objective: Period, EnergyBudget: 46})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 2) {
		t.Errorf("period under energy 46 = %g, want 2", res.Value)
	}
	if !fmath.LE(res.Metrics.Energy, 46) {
		t.Errorf("energy %g exceeds budget", res.Metrics.Energy)
	}
}

func TestSolveLatencyWithPeriodAndEnergy(t *testing.T) {
	inst := pipeline.MotivatingExample()
	res, err := Solve(&inst, Request{
		Rule: mapping.Interval, Objective: Latency,
		PeriodBounds: UniformBounds(&inst, 2), EnergyBudget: 46,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.LE(res.Metrics.Period, 2) || !fmath.LE(res.Metrics.Energy, 46) {
		t.Errorf("constraints violated: %+v", res.Metrics)
	}
}

// TestResultClone pins Result.Clone: the copy is DeepEqual to the original,
// nil and empty slices included, and shares no backing array with it.
func TestResultClone(t *testing.T) {
	for _, r := range []Result{
		{},
		{Value: 2, Mapping: mapping.Mapping{Apps: []mapping.AppMapping{}}, Metrics: mapping.Metrics{AppPeriods: []float64{}}},
		{
			Value: 3,
			Mapping: mapping.Mapping{Apps: []mapping.AppMapping{
				{Intervals: []mapping.PlacedInterval{{From: 0, To: 1, Proc: 2, Mode: 1}, {From: 2, To: 3, Proc: 0}}},
				{},
				{Intervals: []mapping.PlacedInterval{}},
				{Intervals: []mapping.PlacedInterval{{Proc: 1}}},
			}},
			Metrics: mapping.Metrics{AppPeriods: []float64{1, 2, 3, 4}, AppLatencies: []float64{5, 6, 7, 8}},
		},
	} {
		c := r.Clone()
		if !reflect.DeepEqual(c, r) {
			t.Fatalf("clone %+v differs from %+v", c, r)
		}
		if r.Value != 3 {
			continue
		}
		// Appending to one copied slice must not spill into its neighbour
		// in the shared backing array.
		c.Mapping.Apps[0].Intervals = append(c.Mapping.Apps[0].Intervals, mapping.PlacedInterval{Proc: -2})
		c.Metrics.AppPeriods = append(c.Metrics.AppPeriods, -2)
		if c.Mapping.Apps[3].Intervals[0].Proc != 1 || c.Metrics.AppLatencies[0] != 5 {
			t.Fatalf("append to a cloned slice spilled into its neighbour: %+v", c)
		}
		c.Mapping.Apps[0].Intervals[1].Proc = -1
		c.Mapping.Apps[3].Intervals[0].Proc = -1
		c.Metrics.AppPeriods[3] = -1
		c.Metrics.AppLatencies[0] = -1
		if r.Mapping.Apps[0].Intervals[1].Proc != 0 || r.Mapping.Apps[3].Intervals[0].Proc != 1 ||
			r.Metrics.AppPeriods[3] != 4 || r.Metrics.AppLatencies[0] != 5 {
			t.Fatalf("mutating the clone changed the original: %+v", r)
		}
	}
}
