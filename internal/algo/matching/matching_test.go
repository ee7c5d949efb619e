package matching

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// bruteAssign solves the assignment problem by enumerating permutations.
func bruteAssign(cost [][]float64) (float64, bool) {
	n := len(cost)
	if n == 0 {
		return 0, true
	}
	m := len(cost[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(1)
	used := make([]bool, m)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if sum >= best {
			return
		}
		if i == n {
			best = sum
			return
		}
		for j := 0; j < m; j++ {
			if used[j] || math.IsInf(cost[i][j], 1) {
				continue
			}
			used[j] = true
			rec(i+1, sum+cost[i][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best, !math.IsInf(best, 1)
}

func TestAssignMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := n + rng.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				if rng.Float64() < 0.15 {
					cost[i][j] = math.Inf(1)
				} else {
					cost[i][j] = float64(rng.Intn(50))
				}
			}
		}
		want, feasible := bruteAssign(cost)
		asg, got, ok := Assign(cost)
		if ok != feasible {
			t.Fatalf("trial %d: feasibility mismatch: assign=%v brute=%v (cost %v)", trial, ok, feasible, cost)
		}
		if !ok {
			continue
		}
		if !fmath.EQ(got, want) {
			t.Fatalf("trial %d: total %g, brute force %g (cost %v)", trial, got, want, cost)
		}
		// Assignment must be a partial injection.
		seen := map[int]bool{}
		sum := 0.0
		for i, j := range asg {
			if seen[j] {
				t.Fatalf("trial %d: column %d used twice", trial, j)
			}
			seen[j] = true
			sum += cost[i][j]
		}
		if !fmath.EQ(sum, got) {
			t.Fatalf("trial %d: reported total %g but edges sum to %g", trial, got, sum)
		}
	}
}

func TestAssignEdgeCases(t *testing.T) {
	if _, total, ok := Assign(nil); !ok || total != 0 {
		t.Error("empty problem should be trivially solvable")
	}
	// More rows than columns: infeasible.
	if _, _, ok := Assign([][]float64{{1}, {2}}); ok {
		t.Error("n > m accepted")
	}
	// All forbidden.
	if _, _, ok := Assign([][]float64{{math.Inf(1), math.Inf(1)}}); ok {
		t.Error("all-forbidden row accepted")
	}
	// Single admissible choice.
	asg, total, ok := Assign([][]float64{{math.Inf(1), 7}})
	if !ok || asg[0] != 1 || total != 7 {
		t.Errorf("single-choice: asg=%v total=%g ok=%v", asg, total, ok)
	}
}

// TestMinEnergyGivenPeriodCommHomMatchesOracle verifies Theorem 19 against
// the exhaustive one-to-one solver on random instances.
func TestMinEnergyGivenPeriodCommHomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 1, Modes: 1 + rng.Intn(3),
			Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 8,
		}
		inst := workload.MustInstance(rng, cfg)
		cfg.Procs = inst.TotalStages() + rng.Intn(2)
		inst.Platform = workload.Platform(rng, cfg)
		inst.Energy = pipeline.EnergyModel{Static: float64(rng.Intn(2)), Alpha: 2}
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		// Random but frequently feasible bounds: cycle time of the
		// heaviest stage on a middling processor.
		bounds := make([]float64, len(inst.Apps))
		for a := range bounds {
			heaviest := 0.0
			for _, st := range inst.Apps[a].Stages {
				heaviest = math.Max(heaviest, st.Work)
			}
			bounds[a] = heaviest/2 + rng.Float64()*heaviest
		}
		m, got, err := MinEnergyGivenPeriodCommHom(&inst, model, bounds)
		want, werr := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: model, PeriodBounds: bounds})
		if (err != nil) != (werr != nil) {
			t.Fatalf("trial %d: feasibility mismatch: matching=%v oracle=%v", trial, err, werr)
		}
		if err != nil {
			continue
		}
		if !fmath.EQ(got, want.Value) {
			t.Fatalf("trial %d (%v): energy %g, oracle %g (bounds %v)", trial, model, got, want.Value, bounds)
		}
		if !fmath.EQ(mapping.Energy(&inst, &m), got) {
			t.Fatalf("trial %d: reported energy %g does not match mapping energy", trial, got)
		}
		for a := range inst.Apps {
			if tp := mapping.AppPeriod(&inst, &m, a, model); !fmath.LE(tp, bounds[a]) {
				t.Fatalf("trial %d: app %d period %g violates bound %g", trial, a, tp, bounds[a])
			}
		}
	}
}

func TestMinEnergyPrefersSlowModes(t *testing.T) {
	// Two unit-work stages, two bi-modal processors {1, 4}. Bound 1:
	// both run at speed 1, energy 2, rather than any speed 4.
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 2, 1)},
		Platform: pipeline.NewCommHomogeneousPlatform([][]float64{{1, 4}, {1, 4}}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	m, e, err := MinEnergyGivenPeriodCommHom(&inst, pipeline.Overlap, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(e, 2) {
		t.Errorf("energy = %g, want 2", e)
	}
	for _, iv := range m.Apps[0].Intervals {
		if iv.Mode != 0 {
			t.Errorf("stage on fast mode unnecessarily")
		}
	}
}

func TestPreconditionsAndInfeasibility(t *testing.T) {
	inst := pipeline.MotivatingExample() // 7 stages > 3 processors
	if _, _, err := MinEnergyGivenPeriodCommHom(&inst, pipeline.Overlap, []float64{5, 5}); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("undersized platform: %v", err)
	}
	het := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 2, 1)},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	het.Platform.InBandwidth[0][0] = 3
	if _, _, err := MinEnergyGivenPeriodCommHom(&het, pipeline.Overlap, []float64{5}); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("het platform: %v", err)
	}
	ok := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 2, 4)},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	if _, _, err := MinEnergyGivenPeriodCommHom(&ok, pipeline.Overlap, []float64{0.5}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible bounds: %v", err)
	}
}
