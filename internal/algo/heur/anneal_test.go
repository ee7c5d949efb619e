package heur

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// randomMapping draws a random valid mapping of inst under rule.
func randomMapping(t *testing.T, rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule) mapping.Mapping {
	t.Helper()
	if rule == mapping.Interval {
		m, err := workload.RandomMapping(rng, inst)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	perm := rng.Perm(inst.Platform.NumProcessors())
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
	for a := range inst.Apps {
		for k := range inst.Apps[a].Stages {
			u := perm[0]
			perm = perm[1:]
			m.Apps[a].Intervals = append(m.Apps[a].Intervals, mapping.PlacedInterval{
				From: k, To: k, Proc: u, Mode: rng.Intn(inst.Platform.Processors[u].NumModes()),
			})
		}
	}
	return m
}

func sameMapping(x, y *mapping.Mapping) bool {
	return slices.EqualFunc(x.Apps, y.Apps, func(a, b mapping.AppMapping) bool {
		return slices.Equal(a.Intervals, b.Intervals)
	})
}

// TestMovesKeepValidityAndBuffersApart drives the workspace the way anneal
// does, accepting and recording moves at random. Every applied move must
// leave a valid candidate, mutating the candidate must never change the
// incumbent or the best mapping (the three reused buffers never alias),
// and settling must leave the candidate equal to the incumbent.
func TestMovesKeepValidityAndBuffersApart(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	for trial := 0; trial < 40; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 5,
			Procs: 10, Modes: 1 + rng.Intn(3),
			Class: pipeline.FullyHeterogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6, MaxBandwidth: 3,
		}
		inst := workload.MustInstance(rng, cfg)
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			start := randomMapping(t, rng, &inst, rule)
			ws := newWorkspace(newEvaluator(&inst, pipeline.Goal{}), &start)
			applied := 0
			for i := 0; i < 400; i++ {
				cur, best := ws.cur.Clone(), ws.best.Clone()
				if _, ok := ws.propose(rng, rule); !ok {
					continue
				}
				applied++
				if err := ws.cand.Validate(&inst, rule); err != nil {
					t.Fatalf("trial %d %v move %d: %v (%v)", trial, rule, i, err, ws.cand.String())
				}
				if !sameMapping(&ws.cur, &cur) || !sameMapping(&ws.best, &best) {
					t.Fatalf("trial %d %v move %d: mutating the candidate changed the incumbent or the best mapping", trial, rule, i)
				}
				switch rng.Intn(3) {
				case 0:
					ws.settle(true)
				case 1:
					ws.settle(true)
					ws.keepBest()
				default:
					ws.settle(false)
				}
				if !sameMapping(&ws.cand, &ws.cur) {
					t.Fatalf("trial %d %v move %d: settle left the candidate %v unequal to the incumbent %v", trial, rule, i, ws.cand.String(), ws.cur.String())
				}
			}
			if applied == 0 {
				t.Fatalf("trial %d %v: no move applied", trial, rule)
			}
		}
	}
}

// annealCase is one anneal workload: apps applications, minimizing the
// period, or the energy under period bounds 1.3 times the greedy start's.
type annealCase struct {
	name   string
	apps   int
	energy bool
}

var annealCases = []annealCase{
	{"period-2apps", 2, false},
	{"energy-3apps", 3, true},
}

// annealStart returns a fixed instance, evaluator and greedy start for
// the allocation guard and the benchmark.
func annealStart(tb testing.TB, c annealCase, rule mapping.Rule) (*evaluator, mapping.Mapping) {
	rng := rand.New(rand.NewSource(1403))
	cfg := workload.Config{
		Apps: c.apps, MinStages: 4, MaxStages: 5, Procs: 12 + 4*(c.apps-2), Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 10, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	}
	inst := workload.MustInstance(rng, cfg)
	start, err := initial(rng, &inst, rule, 0)
	if err != nil {
		tb.Fatal(err)
	}
	goal := pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}
	if c.energy {
		mt := mapping.Evaluate(&inst, &start, pipeline.Overlap)
		goal = pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: make([]float64, len(inst.Apps))}
		for a := range inst.Apps {
			goal.PeriodBounds[a] = 1.3 * mt.AppPeriods[a]
		}
	}
	return newEvaluator(&inst, goal), start
}

// TestAnnealAllocsDoNotGrowWithIters: one anneal allocates its workspace
// and nothing per iteration, so ten times the iterations cost the same
// number of allocations.
func TestAnnealAllocsDoNotGrowWithIters(t *testing.T) {
	for _, c := range annealCases {
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			ev, start := annealStart(t, c, rule)
			rng := rand.New(rand.NewSource(1))
			allocs := func(iters int) float64 {
				return testing.AllocsPerRun(5, func() {
					rng.Seed(1)
					m := start
					anneal(context.Background(), rng, ev, &m, rule, iters)
				})
			}
			short, long := allocs(400), allocs(4000)
			if short != long {
				t.Errorf("%s %v: anneal allocates %v times at 400 iterations and %v at 4000", c.name, rule, short, long)
			}
		}
	}
}

// TestMinimizeConcurrentMatchesSerial runs the full search from several
// goroutines on one instance: each must return exactly the serial answer,
// so nothing the searches share (the move tables) is written.
func TestMinimizeConcurrentMatchesSerial(t *testing.T) {
	inst := workload.StreamingCenter(16)
	goal := pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap}
	for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
		run := func() (string, float64, error) {
			m, v, err := Minimize(context.Background(), rand.New(rand.NewSource(7)), &inst, rule, goal, Options{Iters: 1500, Restarts: 2})
			return m.String(), v, err
		}
		want, wantV, err := run()
		if err != nil {
			t.Fatal(err)
		}
		const workers = 6
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, v, err := run()
				//lint:allow floatcmp concurrent runs must reproduce the serial value bit for bit
				if err != nil || got != want || v != wantV {
					errs[w] = fmt.Errorf("worker %d: %s = %v (err %v), serial %s = %v", w, got, v, err, want, wantV)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Errorf("%v: %v", rule, err)
			}
		}
	}
}

// BenchmarkAnneal times one anneal from a greedy start; allocs/op must not
// change with the iteration count.
func BenchmarkAnneal(b *testing.B) {
	for _, c := range annealCases {
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			ev, start := annealStart(b, c, rule)
			for _, iters := range []int{400, 4000} {
				b.Run(fmt.Sprintf("%s/%v/iters=%d", c.name, rule, iters), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						rng.Seed(int64(i))
						m := start
						anneal(context.Background(), rng, ev, &m, rule, iters)
					}
				})
			}
		}
	}
}
