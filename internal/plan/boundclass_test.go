package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/algo/interval"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// matchesCore asks pl the query and fails unless the answer is
// bit-identical to core.Solve on the query's own bounds.
func matchesCore(t *testing.T, pl *Plan, inst *pipeline.Instance, q Query, what string) {
	t.Helper()
	want, werr := core.Solve(inst, pl.Request(q))
	got, gerr := pl.Solve(q)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: plan error %v, core error %v (query %+v)", what, gerr, werr, q)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plan answer %+v differs from core %+v (query %+v)", what, got, want, q)
	}
}

// edgeBound returns a bound at or next to x: x itself, its float
// neighbours, or x scaled by 1±k·1e-9 (the fmath.Eps edge of LE) and the
// neighbours of that.
func edgeBound(rng *rand.Rand, x float64) float64 {
	k := float64(1 + rng.Intn(2))
	switch rng.Intn(7) {
	case 0:
		return x
	case 1:
		return math.Nextafter(x, math.Inf(1))
	case 2:
		return math.Nextafter(x, math.Inf(-1))
	case 3:
		return x * (1 + k*1e-9)
	case 4:
		return x * (1 - k*1e-9)
	case 5:
		return math.Nextafter(x*(1+k*1e-9), math.Inf(rng.Intn(2)*2-1))
	default:
		return math.Nextafter(x*(1-k*1e-9), math.Inf(rng.Intn(2)*2-1))
	}
}

// classInstance draws a fully homogeneous instance for the interval rule
// (even i) or a communication homogeneous one for the one-to-one rule
// (odd i), small enough that every query stays fast.
func classInstance(rng *rand.Rand, i int) (pipeline.Instance, mapping.Rule) {
	apps := 1 + i%3
	per := 2 + rng.Intn(6)
	cfg := workload.Config{
		Apps: apps, MinStages: per, MaxStages: per, Modes: 1 + rng.Intn(3),
		MaxWork: 9, MaxData: rng.Intn(6), MaxSpeed: 8, Bandwidth: 0.5 + float64(rng.Intn(4)),
		Energy: pipeline.EnergyModel{Static: float64(rng.Intn(3)), Alpha: 2 + rng.Float64()},
	}
	if i%2 == 0 {
		cfg.Class, cfg.Procs = pipeline.FullyHomogeneous, apps+rng.Intn(2*per)
		return workload.MustInstance(rng, cfg), mapping.Interval
	}
	cfg.Class, cfg.Procs = pipeline.CommHomogeneous, apps*per+rng.Intn(3)
	return workload.MustInstance(rng, cfg), mapping.OneToOne
}

// TestBoundClassesMatchCore runs random fully homogeneous interval plans
// and communication homogeneous one-to-one plans, under both
// communication models, through one plan each. Period bounds sit at, just
// above and just below the plan's cycle times, so many distinct bounds
// share a class; every answer must equal core.Solve on its own bounds.
// The battery mixes the three bound-class cells with raw-keyed queries
// (period under latency bounds, latency under period bounds and an energy
// budget) that must never share an answer across bounds.
func TestBoundClassesMatchCore(t *testing.T) {
	rng := rand.New(rand.NewSource(2303))
	var queries, hits int64
	for i := 0; i < 24; i++ {
		inst, rule := classInstance(rng, i)
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			pl, err := Compile(&inst, rule, model)
			if err != nil {
				t.Fatal(err)
			}
			cycles := pl.cycleTimes()
			// A few cycle times per application, so bounds near them
			// repeat classes.
			picks := make([][]float64, len(cycles))
			for a, times := range cycles {
				for range 3 {
					picks[a] = append(picks[a], times[rng.Intn(len(times))])
				}
			}
			periodBounds := func() []float64 {
				b := make([]float64, len(picks))
				for a := range b {
					b[a] = edgeBound(rng, picks[a][rng.Intn(len(picks[a]))])
				}
				return b
			}
			latencyBounds := func() []float64 {
				b := make([]float64, len(inst.Apps))
				for a := range b {
					b[a] = (0.3 + rng.Float64()) * inst.Apps[a].TotalWork()
				}
				return b
			}
			for j := 0; j < 60; j++ {
				q := Query{Objective: core.Energy, PeriodBounds: periodBounds()}
				switch {
				case rule == mapping.OneToOne:
				case j%4 == 1:
					q.Objective = core.Latency
				case j%4 == 2:
					q = Query{Objective: core.Period, LatencyBounds: latencyBounds()}
				case j%4 == 3:
					q.Objective, q.EnergyBudget = core.Latency, 1+10*rng.Float64()
					q.ExactLimit, q.HeurIters, q.HeurRestarts = 1, 40, 1
				}
				matchesCore(t, pl, &inst, q, "random plan")
			}
			st := pl.QueryStats()
			queries += st.Queries
			hits += st.Hits
		}
	}
	// Bounds next to a few cycle times must share classes, or this test
	// exercises nothing.
	t.Logf("%d hits of %d queries", hits, queries)
	if hits < queries/4 {
		t.Fatalf("%d hits of %d queries, want at least a quarter", hits, queries)
	}
}

// closeCycleInstance is one application of two stages whose works differ
// by less than fmath.Eps relative, on two identical processors with speeds
// 1 and 2 and no communication: its cycle times come in pairs closer than
// fmath.Eps, which LE still tells apart for bounds between their Eps
// edges.
func closeCycleInstance() pipeline.Instance {
	app := pipeline.NewUniformApplication("close", 2, 1)
	app.Stages[1].Work = 1 + 0.8e-9
	return pipeline.Instance{
		Apps:     []pipeline.Application{app},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1, 2}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
}

// TestBoundClassesTellCloseCycleTimesApart asks one plan per rule, model
// and order for bounds around two cycle times closer than fmath.Eps:
// merging them within Eps would give 1-0.5e-9 and 1+0.5e-9 one class,
// though the first admits only the lighter stage at speed 1 and the
// second both, and counting them with a raw <= would give 0.75 and
// 1-0.5e-9 one class.
func TestBoundClassesTellCloseCycleTimesApart(t *testing.T) {
	inst := closeCycleInstance()
	bounds := []float64{0.75, 1 - 0.5e-9, 1 + 0.5e-9, 1, math.Nextafter(1, 0), 1 - 1e-9, 1 + 1e-9, 2}
	for _, rule := range []mapping.Rule{mapping.Interval, mapping.OneToOne} {
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			// The instance must discriminate: the two bounds in the
			// middle of the Eps band get different answers.
			req := core.Request{Rule: rule, Model: model, Objective: core.Energy}
			req.PeriodBounds = []float64{1 - 0.5e-9}
			lo, err := core.Solve(&inst, req)
			if err != nil {
				t.Fatal(err)
			}
			req.PeriodBounds = []float64{1 + 0.5e-9}
			hi, err := core.Solve(&inst, req)
			if err != nil {
				t.Fatal(err)
			}
			if lo.Value == hi.Value {
				t.Fatalf("rule %v model %v: both bounds cost %g; the instance does not discriminate", rule, model, lo.Value)
			}
			for _, reverse := range []bool{false, true} {
				pl, err := Compile(&inst, rule, model)
				if err != nil {
					t.Fatal(err)
				}
				for k := range bounds {
					if reverse {
						k = len(bounds) - 1 - k
					}
					for _, obj := range []core.Criterion{core.Energy, core.Latency} {
						matchesCore(t, pl, &inst, Query{Objective: obj, PeriodBounds: []float64{bounds[k]}}, "close cycle times")
					}
				}
				if times := pl.cycleTimes()[0]; !fmath.EQ(times[0], times[1]) || times[0] == times[1] {
					t.Fatalf("cycle times %v: want two distinct values within fmath.Eps first", times)
				}
			}
		}
	}
}

// TestBoundClassesSkipNaNCycleTimes compiles a fully homogeneous
// instance whose work prefix sums overflow after the second stage, so
// most of its intervals' cycle times are NaN (Inf - Inf) and the others
// but one are +Inf: LE admits the NaNs under no bound and the +Inf ones
// only under +Inf, the one bound the instance is feasible under. Every
// answer must equal core.Solve on its own bounds; a count that searched
// past the NaNs too would put +Inf in the class of -1.
func TestBoundClassesSkipNaNCycleTimes(t *testing.T) {
	app := pipeline.NewUniformApplication("overflow", 8, 1)
	app.Stages[0].Work, app.Stages[1].Work = 1e308, 1e308
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{app},
		Platform: pipeline.NewHomogeneousPlatform(8, []float64{1, 2}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	pl, err := Compile(&inst, mapping.Interval, pipeline.NoOverlap)
	if err != nil {
		t.Fatal(err)
	}
	if times := interval.CycleTimes(&inst, pipeline.NoOverlap)[0]; !slices.ContainsFunc(times, math.IsNaN) {
		t.Fatalf("cycle times %v: want a NaN", times)
	}
	for _, b := range []float64{math.Inf(1), 5, 1e308, math.Inf(1), math.NaN(), -1, math.MaxFloat64, math.Inf(1)} {
		for _, obj := range []core.Criterion{core.Energy, core.Latency} {
			matchesCore(t, pl, &inst, Query{Objective: obj, PeriodBounds: []float64{b}}, "NaN cycle times")
		}
	}
}

// TestBoundClassPublishedAnswer asks a bound of an answered class with an
// already expired deadline: the published answer of the class is returned
// as a hit, bit-identical to core.Solve, not a degraded one.
func TestBoundClassPublishedAnswer(t *testing.T) {
	inst := closeCycleInstance()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Solve(Query{Objective: core.Energy, PeriodBounds: []float64{1.5}}); err != nil {
		t.Fatal(err)
	}
	q := Query{Objective: core.Energy, PeriodBounds: []float64{1.7}}
	want, err := core.Solve(&inst, pl.Request(q))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	got, err, hit := pl.Answer(ctx, q)
	if err != nil || !hit || !reflect.DeepEqual(got, want) {
		t.Fatalf("expired deadline on an answered class: %+v, %v, hit %v; want %+v as a hit", got, err, hit, want)
	}
}

// TestBoundClassesConcurrent has goroutines ask one fresh plan for bounds
// of a few classes at once, so the first asks race to build the cycle-time
// sets and to fill a class (run under -race by the Makefile race target):
// every answer must equal core.Solve on its own bounds.
func TestBoundClassesConcurrent(t *testing.T) {
	inst := closeCycleInstance()
	bounds := []float64{0.75, 0.8, 1 - 0.5e-9, 1 + 0.5e-9, 1.5, 1.7, 3}
	want := make([]core.Result, len(bounds))
	for i, b := range bounds {
		var err error
		want[i], err = core.Solve(&inst, core.Request{Rule: mapping.OneToOne, Objective: core.Energy, PeriodBounds: []float64{b}})
		if err != nil {
			t.Fatal(err)
		}
	}
	pl, err := Compile(&inst, mapping.OneToOne, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range 40 {
				i := (g + it) % len(bounds)
				got, err := pl.Solve(Query{Objective: core.Energy, PeriodBounds: []float64{bounds[i]}})
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d bound %g: %+v, %v; want %+v", g, bounds[i], got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkPlanBoundClass times an energy query under period bounds on a
// fully homogeneous interval instance at plan-sweep scale (two
// applications of 21 stages, three modes). hit asks a bound of an
// answered class: class key, memo hit, copy. miss compiles a plan and
// asks its first query: the cycle-time sets, the class key and the
// Theorem 18/21 solve.
func BenchmarkPlanBoundClass(b *testing.B) {
	rng := rand.New(rand.NewSource(2304))
	inst := workload.MustInstance(rng, workload.Config{
		Apps: 2, MinStages: 21, MaxStages: 21, Procs: 12, Modes: 3,
		Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
	})
	answered := Query{Objective: core.Energy, PeriodBounds: []float64{6, 6}}
	b.Run("hit", func(b *testing.B) {
		pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Solve(answered); err != nil {
			b.Fatal(err)
		}
		q := Query{Objective: core.Energy, PeriodBounds: []float64{6 + 1e-7, 6 + 1e-7}}
		b.ReportAllocs()
		for b.Loop() {
			pl.Solve(q)
		}
		if st := pl.QueryStats(); st.Hits != st.Queries-1 {
			b.Fatalf("%d hits of %d queries: the bounds are not in one class", st.Hits, st.Queries)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
			if err != nil {
				b.Fatal(err)
			}
			pl.Solve(answered)
		}
	})
}
