package repro

// Ablation benchmarks for the design choices called out in EXPERIMENTS.md and
// the future-work extensions: replication versus plain interval mappings,
// general mappings versus interval mappings, the heuristic's components
// (greedy construction alone, annealing budgets), and the candidate-set
// binary search versus a linear scan.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algo/heur"
	"repro/internal/algo/interval"
	"repro/internal/general"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/repl"
	"repro/internal/workload"
)

// BenchmarkAblationReplication compares the plain Theorem 3 DP against the
// replicated-interval DP on a bottleneck-heavy fully homogeneous instance,
// reporting the achieved periods as custom metrics.
func BenchmarkAblationReplication(b *testing.B) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{{
			Stages: []pipeline.Stage{{Work: 2, Out: 1}, {Work: 18, Out: 1}, {Work: 2, Out: 1}},
			In:     1, Weight: 1,
		}},
		Platform: pipeline.NewHomogeneousPlatform(6, []float64{2}, 4, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	b.Run("plain-interval", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			_, t, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			period = t
		}
		b.ReportMetric(period, "period")
	})
	b.Run("replicated", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			_, t, err := repl.MinPeriodFullyHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			period = t
		}
		b.ReportMetric(period, "period")
	})
}

// BenchmarkAblationGeneralVsInterval compares the optimal general mapping
// (processor sharing allowed) against the optimal interval mapping on a
// communication-free instance — quantifying what the paper's interval
// restriction costs.
func BenchmarkAblationGeneralVsInterval(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	inst := workload.MustInstance(rng, workload.Config{
		Apps: 2, MinStages: 3, MaxStages: 4, Procs: 3, Modes: 1,
		Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 0, MaxSpeed: 4,
	})
	b.Run("interval-dp", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			_, t, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			period = t
		}
		b.ReportMetric(period, "period")
	})
	b.Run("general-exact", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			_, t, err := general.ExactMinPeriod(&inst, 100_000_000)
			if err != nil {
				b.Fatal(err)
			}
			period = t
		}
		b.ReportMetric(period, "period")
	})
	b.Run("general-lpt", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			_, t, err := general.LPT(&inst)
			if err != nil {
				b.Fatal(err)
			}
			period = t
		}
		b.ReportMetric(period, "period")
	})
}

// BenchmarkAblationHeuristicBudget sweeps the annealing budget on a het
// platform, reporting achieved period per budget: the quality/time
// trade-off of the future-work heuristic.
func BenchmarkAblationHeuristicBudget(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	inst := workload.MustInstance(rng, workload.Config{
		Apps: 3, MinStages: 3, MaxStages: 6, Procs: 12, Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 12, MaxData: 6, MaxSpeed: 9, MaxBandwidth: 4,
	})
	for _, iters := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			var period float64
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(1))
				_, t, err := heur.Minimize(context.Background(), r, &inst, mapping.Interval, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap},
					heur.Options{Iters: iters, Restarts: 2})
				if err != nil {
					b.Fatal(err)
				}
				period = t
			}
			b.ReportMetric(period, "period")
		})
	}
}

// BenchmarkAblationReplicatedSimulator measures the round-robin executor
// against the plain one on the same (lifted) mapping: the cost of
// replication support in the substrate.
func BenchmarkAblationReplicatedSimulator(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	inst := workload.StreamingCenter(10)
	m, err := workload.RandomMapping(rng, &inst)
	if err != nil {
		b.Fatal(err)
	}
	rm := repl.Lift(&m)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Simulate(&inst, &m, Overlap, SimOptions{Datasets: 1000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replicated-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SimulateReplicated(&inst, &rm, Overlap, SimOptions{Datasets: 1000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
