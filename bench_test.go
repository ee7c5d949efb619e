package repro

// One benchmark per reproduced artifact (see EXPERIMENTS.md's per-experiment
// index). The polynomial cells are benchmarked across sizes so their
// polynomial wall-clock growth is visible next to the exponential growth of
// the exhaustive solver on the NP-hard cells; `go test -bench=. -benchmem`
// regenerates every number recorded in EXPERIMENTS.md.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/algo/heur"
	"repro/internal/algo/interval"
	"repro/internal/algo/matching"
	"repro/internal/algo/onetoone"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/npc"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkFig1MotivatingExample regenerates all four Section 2 numbers by
// exhaustive search (experiment FIG1).
func BenchmarkFig1MotivatingExample(b *testing.B) {
	inst := pipeline.MotivatingExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
		if err != nil || !eq(p.Value, 1) {
			b.Fatalf("period %v %v", p.Value, err)
		}
		l, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
		if err != nil || !eq(l.Value, 2.75) {
			b.Fatalf("latency %v %v", l.Value, err)
		}
		e, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy})
		if err != nil || !eq(e.Value, 10) {
			b.Fatalf("energy %v %v", e.Value, err)
		}
		t, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{2, 2}})
		if err != nil || !eq(t.Value, 46) {
			b.Fatalf("trade-off %v %v", t.Value, err)
		}
	}
}

func eq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// BenchmarkTable1PeriodOneToOne is Theorem 1 (polynomial cell TAB1-P-O2O):
// binary search plus greedy assignment on communication homogeneous
// platforms, across sizes.
func BenchmarkTable1PeriodOneToOne(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: 2, MinStages: n / 2, MaxStages: n / 2, Procs: n + 2, Modes: 2,
				Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := onetoone.MinPeriodCommHom(&inst, pipeline.Overlap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PeriodOneToOneHet is the NP-complete cell TAB1-P-O2O-HET
// (Theorem 2): exhaustive search on fully heterogeneous platforms, with
// visibly exponential growth in N.
func BenchmarkTable1PeriodOneToOneHet(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			cfg := workload.Config{
				Apps: 1, MinStages: n, MaxStages: n, Procs: n, Modes: 1,
				Class: pipeline.FullyHeterogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
			}
			inst := workload.MustInstance(rng, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PeriodInterval is Theorem 3 (polynomial cell TAB1-P-INT):
// the chain DP plus Algorithm 2 on fully homogeneous platforms.
func BenchmarkTable1PeriodInterval(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: 2, MinStages: n / 2, MaxStages: n / 2, Procs: 16, Modes: 2,
				Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PeriodIntervalSpecial is the NP-complete special-app cell
// TAB1-P-INT-SPEC (Theorem 5): a 3-partition gadget solved exactly (small
// m) and heuristically.
func BenchmarkTable1PeriodIntervalSpecial(b *testing.B) {
	tp := npc.ThreePartition{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}
	inst := npc.EncodePeriodInterval(tp)
	goal := pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}
	b.Run("exact/m=2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, goal)
			if err != nil || !eq(sol.Value, 1) {
				b.Fatalf("period %v %v", sol.Value, err)
			}
		}
	})
	b.Run("heuristic/m=2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			if _, _, err := heur.Minimize(context.Background(), rng, &inst, mapping.Interval, goal, heur.Options{Iters: 1500, Restarts: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1LatencyOneToOne covers both halves of the TAB1-L-O2O row:
// the trivial fully homogeneous cell (Theorem 8) and the NP-complete
// special-app cell via the Theorem 9 gadget.
func BenchmarkTable1LatencyOneToOne(b *testing.B) {
	b.Run("fullyhom/Thm8", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		cfg := workload.Config{Apps: 2, MinStages: 4, MaxStages: 4, Procs: 10, Modes: 2,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8}
		inst := workload.MustInstance(rng, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := onetoone.MinLatencyFullyHom(&inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gadget/Thm9", func(b *testing.B) {
		tp := npc.ThreePartition{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}
		inst := npc.EncodeLatencyOneToOne(tp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
			if err != nil || !eq(sol.Value, 10) {
				b.Fatalf("latency %v %v", sol.Value, err)
			}
		}
	})
}

// BenchmarkTable1LatencyInterval is Theorem 12 (polynomial cell
// TAB1-L-INT): whole-application greedy on communication homogeneous
// platforms.
func BenchmarkTable1LatencyInterval(b *testing.B) {
	for _, a := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("A=%d", a), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(a)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: a, MinStages: 3, MaxStages: 6, Procs: a + 4, Modes: 3,
				Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := interval.MinLatencyCommHom(&inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2PeriodLatency is the Theorem 15-16 bi-criteria DP
// (polynomial cell TAB2-PL): latency under a period bound on fully
// homogeneous platforms.
func BenchmarkTable2PeriodLatency(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: 2, MinStages: n / 2, MaxStages: n / 2, Procs: 12, Modes: 1,
				Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			m, t, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			_ = m
			bounds := core.UniformBounds(&inst, t*1.3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := interval.MinLatencyGivenPeriodFullyHom(&inst, pipeline.Overlap, bounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2PeriodEnergyOneToOne is the Theorem 19 matching
// (polynomial cell TAB2-PE-O2O).
func BenchmarkTable2PeriodEnergyOneToOne(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: 2, MinStages: n / 2, MaxStages: n / 2, Procs: n + 2, Modes: 3,
				Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			_, t, err := onetoone.MinPeriodCommHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			bounds := core.UniformBounds(&inst, t*1.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := matching.MinEnergyGivenPeriodCommHom(&inst, pipeline.Overlap, bounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2PeriodEnergyInterval is the Theorem 18+21 energy DP
// (polynomial cell TAB2-PE-INT).
func BenchmarkTable2PeriodEnergyInterval(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := workload.MustInstance(rng, workload.Config{
				Apps: 2, MinStages: n / 2, MaxStages: n / 2, Procs: 12, Modes: 3,
				Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			})
			_, t, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			bounds := core.UniformBounds(&inst, t*1.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := interval.MinEnergyGivenPeriodFullyHom(&inst, pipeline.Overlap, bounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2TriCriteriaUniModal is the polynomial tri-criteria cell
// TAB2-PLE-UNI (Theorems 23-24).
func BenchmarkTable2TriCriteriaUniModal(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	inst := workload.MustInstance(rng, workload.Config{
		Apps: 3, MinStages: 8, MaxStages: 8, Procs: 12, Modes: 1,
		Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 4,
	})
	_, t, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
	if err != nil {
		b.Fatal(err)
	}
	per := core.UniformBounds(&inst, t*1.4)
	lat := core.UniformBounds(&inst, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := interval.MinEnergyGivenPeriodLatencyUniModal(&inst, pipeline.Overlap, per, lat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2TriCriteriaMultiModal is the NP-hard multi-modal cell
// TAB2-PLE-MULTI (Theorem 26): the 2-partition gadget solved exactly, and
// the announced-future-work heuristic on the same instance.
func BenchmarkTable2TriCriteriaMultiModal(b *testing.B) {
	tp := npc.TwoPartition{Items: []int{1, 2, 3}}
	g := npc.EncodeTriCriteriaOneToOne(tp, 8, 0.01)
	goal := pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap,
		PeriodBounds: []float64{g.PeriodBound}, LatencyBounds: []float64{g.LatencyBound}}
	b.Run("exact/gadget-n=3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.Minimize(context.Background(), &g.Instance, exact.Options{Rule: g.Rule, Modes: exact.AllModes}, goal); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heuristic/gadget-n=3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			_, v, err := heur.Minimize(context.Background(), rng, &g.Instance, g.Rule, goal, heur.Options{Iters: 1200, Restarts: 2})
			if err != nil || math.IsInf(v, 1) {
				b.Fatalf("energy %v %v", v, err)
			}
		}
	})
}

// BenchmarkSimulatorValidation measures the discrete-event substrate
// (experiment SIM): pushing data sets through a mapped instance under both
// communication models, as a plain mapping and as a replicated one.
func BenchmarkSimulatorValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	inst := workload.StreamingCenter(10)
	m, err := workload.RandomMapping(rng, &inst)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := workload.RandomReplicated(rng, &inst)
	if err != nil {
		b.Fatal(err)
	}
	opt := sim.Options{Datasets: 1000}
	for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
		b.Run(model.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Simulate(&inst, &m, model, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
		b.Run("replicated/"+model.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.SimulateReplicated(&inst, &rm, model, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParetoFront builds period/energy frontiers (experiment PARETO):
// exhaustively on the Fig. 1 instance and polynomially on a fully
// homogeneous platform.
func BenchmarkParetoFront(b *testing.B) {
	b.Run("exact/fig1", func(b *testing.B) {
		inst := pipeline.MotivatingExample()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.ParetoFront(context.Background(), &inst, mapping.Interval, pipeline.Overlap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp/fullyhom-N=24", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		inst := workload.MustInstance(rng, workload.Config{
			Apps: 2, MinStages: 12, MaxStages: 12, Procs: 10, Modes: 3,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			front, err := ParetoPeriodEnergy(&inst, Interval, Overlap)
			if err != nil || len(front) == 0 {
				b.Fatalf("front %d %v", len(front), err)
			}
		}
	})
}

// BenchmarkCoreSolveDispatch measures the full dispatcher on the streaming
// preset with an exact limit of 10,000 mappings. The space is larger, but
// the work-budgeted branch-and-bound search ends after 260 placements, so
// this is the exact path past the limit, not the heuristic (the heuristic
// path's benchmark is internal/core's BenchmarkHeuristicSolve).
func BenchmarkCoreSolveDispatch(b *testing.B) {
	inst := StreamingCenter(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Solve(&inst, Request{Rule: Interval, Objective: Period,
			ExactLimit: 10_000, HeurIters: 500, HeurRestarts: 1, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// corpusSeed pins the BenchmarkCorpus draw so BENCH_solver.json is
// comparable across commits; the instances behind every variant can be
// replayed with GenerateInstance(corpusSeed, i).
const corpusSeed int64 = 1

// corpusVariantRecord is one per-variant entry of BENCH_solver.json.
type corpusVariantRecord struct {
	// Name is the (class, rule, model, criterion) combination label.
	Name string `json:"name"`
	// Scenarios is how many corpus instances one op solves.
	Scenarios int `json:"scenarios"`
	// N is the benchmark iteration count behind the numbers.
	N int `json:"n"`
	// NsPerOp and AllocsPerOp are per op, i.e. per batch of Scenarios
	// solves.
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// PlanNsPerOp and PlanAllocsPerOp measure the same scenario batch
	// answered as repeat queries against pre-compiled plans (the
	// compile-once/query-many path: plans compiled and warmed outside the
	// timer, so the op is the steady-state memo hit). PlanN is that
	// sub-benchmark's iteration count and PlanSpeedup is
	// NsPerOp / PlanNsPerOp — how much faster the repeat-query path
	// answers the variant than fresh one-shot solves.
	PlanNsPerOp     float64 `json:"planNsPerOp"`
	PlanAllocsPerOp float64 `json:"planAllocsPerOp"`
	PlanN           int     `json:"planN"`
	PlanSpeedup     float64 `json:"planSpeedup"`
}

// corpusCacheRecord is the memo-cache block of BENCH_solver.json.
type corpusCacheRecord struct {
	Jobs      int     `json:"jobs"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hitRate"`
	Entries   int     `json:"entries"`
	NsPerOp   float64 `json:"nsPerOp"`
	N         int     `json:"n"`
	Evictions int64   `json:"evictions"`
}

// corpusDoc is the BENCH_solver.json document.
type corpusDoc struct {
	// Regenerate documents the exact command that rewrites this file.
	Regenerate string                `json:"regenerate"`
	Seed       int64                 `json:"seed"`
	GoOS       string                `json:"goos"`
	GoArch     string                `json:"goarch"`
	Variants   []corpusVariantRecord `json:"variants"`
	Cache      corpusCacheRecord     `json:"cache"`
}

// BenchmarkCorpus is the solver performance baseline: it solves the seeded
// verification corpus (the same instances internal/diffcheck checks for
// correctness) grouped by (class, rule, model, criterion) variant — each
// variant measured both as fresh one-shot solves and as repeat queries
// against pre-compiled plans (the compile-once/query-many path) — plus a
// shared-cache SolveBatch pass, and writes the per-variant ns/op, allocs,
// plan-reuse speedup and cache hit rate to BENCH_solver.json so future
// changes have a recorded baseline to beat:
//
//	go test -bench=Corpus -benchtime=100x -run='^$' .
func BenchmarkCorpus(b *testing.B) {
	space := gen.DefaultSpace()
	scenarios := space.Corpus(corpusSeed, 2*space.CombinationCount())

	variants := make(map[string][]*gen.Scenario)
	var order []string
	for i := range scenarios {
		sc := &scenarios[i]
		name := sc.Combo()
		if _, ok := variants[name]; !ok {
			order = append(order, name)
		}
		variants[name] = append(variants[name], sc)
	}
	sort.Strings(order)

	// Sub-benchmark closures run again for every b.N ramp-up, so records
	// are keyed by name (last, largest-N invocation wins), never appended.
	records := make(map[string]corpusVariantRecord, len(order))
	planDone := make(map[string]bool, len(order))
	var cacheRec *corpusCacheRecord
	for _, name := range order {
		group := variants[name]
		b.Run(name, func(b *testing.B) {
			// Warm the solver arenas outside the timer, then collect: at
			// -benchtime=100x the hot variants finish in well under a
			// millisecond, so a GC pause inherited from an earlier variant's
			// garbage would dominate the whole measurement.
			for _, sc := range group {
				if _, err := Solve(&sc.Inst, sc.Req); err != nil && !errors.Is(err, ErrInfeasible) {
					b.Fatalf("%s: %v", sc.Name, err)
				}
			}
			runtime.GC()
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sc := range group {
					if _, err := Solve(&sc.Inst, sc.Req); err != nil && !errors.Is(err, ErrInfeasible) {
						b.Fatalf("%s: %v", sc.Name, err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			records[name] = corpusVariantRecord{
				Name:        name,
				Scenarios:   len(group),
				N:           b.N,
				NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(b.N),
			}
		})
		// The compile-once/query-many path over the same scenario batch:
		// plans are compiled and each query answered once outside the
		// timer, so the measured op is the steady-state repeat query (the
		// plan memo's hit path).
		b.Run(name+"/plan-reuse", func(b *testing.B) {
			plans := make([]*Plan, len(group))
			queries := make([]PlanQuery, len(group))
			for i, sc := range group {
				pl, err := Compile(&sc.Inst, sc.Req.Rule, sc.Req.Model)
				if err != nil {
					b.Fatalf("%s: compile: %v", sc.Name, err)
				}
				plans[i], queries[i] = pl, PlanQueryOf(sc.Req)
				if _, err := pl.Solve(queries[i]); err != nil && !errors.Is(err, ErrInfeasible) {
					b.Fatalf("%s: %v", sc.Name, err)
				}
			}
			runtime.GC() // same noise shield as the one-shot sub-benchmark
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range plans {
					if _, err := plans[j].Solve(queries[j]); err != nil && !errors.Is(err, ErrInfeasible) {
						b.Fatalf("%s: %v", group[j].Name, err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			rec := records[name]
			rec.PlanNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			rec.PlanAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
			rec.PlanN = b.N
			if rec.PlanNsPerOp > 0 && rec.NsPerOp > 0 {
				rec.PlanSpeedup = rec.NsPerOp / rec.PlanNsPerOp
			}
			records[name] = rec
			planDone[name] = true
		})
	}

	b.Run("cache/batch-2pass", func(b *testing.B) {
		jobs := make([]Job, 0, len(scenarios))
		for i := range scenarios {
			jobs = append(jobs, Job{Inst: &scenarios[i].Inst, Req: scenarios[i].Req})
		}
		var st SolveCacheStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh cache and two passes per op: the first pass misses
			// on every distinct job, the second must hit on all of them,
			// so the recorded hit rate is 0.5 whenever dedup works —
			// independent of b.N and -benchtime.
			cache := NewSolveCache()
			SolveBatch(jobs, BatchOptions{Cache: cache})
			SolveBatch(jobs, BatchOptions{Cache: cache})
			st = cache.Stats()
		}
		b.StopTimer()
		cacheRec = &corpusCacheRecord{
			Jobs:      len(jobs),
			Hits:      st.Hits,
			Misses:    st.Misses,
			HitRate:   st.HitRate(),
			Entries:   st.Entries,
			Evictions: st.Evictions,
			NsPerOp:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			N:         b.N,
		}
	})

	// Only a complete run may rewrite the committed baseline: a filtered
	// invocation (e.g. -bench=Corpus/cache) must not clobber it with a
	// partial document.
	if len(records) != len(order) || len(planDone) != len(order) || cacheRec == nil {
		b.Logf("partial corpus run (%d/%d variants, %d/%d plan passes, cache %v): BENCH_solver.json left untouched",
			len(records), len(order), len(planDone), len(order), cacheRec != nil)
		return
	}
	doc := corpusDoc{
		Regenerate: "go test -bench=Corpus -benchtime=100x -run='^$' .",
		Seed:       corpusSeed,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Cache:      *cacheRec,
	}
	for _, name := range order {
		doc.Variants = append(doc.Variants, records[name])
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_solver.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_solver.json: %d variants, cache hit rate %.3f", len(doc.Variants), doc.Cache.HitRate)
}
