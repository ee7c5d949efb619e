package plan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// sweepInstance draws instance i of the service benchmark's plan-sweep
// workload, restated here: 2+i%3 applications share 24+3i stages evenly
// (rounded down) on 3 DVFS modes; even i is fully homogeneous on 6+i
// processors under the interval rule, odd i communication homogeneous
// on two processors more than stages under the one-to-one rule. Drawn
// in order i = 0, 1, ... from one rng, as the benchmark draws them.
func sweepInstance(rng *rand.Rand, i int) (pipeline.Instance, mapping.Rule) {
	apps := 2 + i%3
	per := (24 + 3*i) / apps
	cfg := workload.Config{
		Apps: apps, MinStages: per, MaxStages: per, Modes: 3,
		MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	}
	if i%2 == 0 {
		cfg.Class, cfg.Procs = pipeline.FullyHomogeneous, 6+i
		return workload.MustInstance(rng, cfg), mapping.Interval
	}
	cfg.Class, cfg.Procs = pipeline.CommHomogeneous, per*apps+2
	return workload.MustInstance(rng, cfg), mapping.OneToOne
}

// chainCost is application a's whole chain as one interval on the
// slowest processor at its slowest mode, the scale of the plan-sweep
// workload's bounds.
func chainCost(inst *pipeline.Instance, a int) float64 {
	minSpeed := math.Inf(1)
	for p := range inst.Platform.Processors {
		minSpeed = math.Min(minSpeed, inst.Platform.Processors[p].MinSpeed())
	}
	app := &inst.Apps[a]
	cost := app.In
	for _, st := range app.Stages {
		cost += st.Work/minSpeed + st.Out
	}
	return cost
}

// TestOptimumNeverRisesAsBoundsLoosen is a metamorphic guard for the
// polynomial cells at the plan-sweep workload's sizes, where brute force
// cannot reach: on the benchmark's instances (seeds 1-3, both models,
// every polynomial objective of the instance's rule), bounds scaled from
// 0.05 to 2.5 times each application's chain cost must never make a
// feasible query infeasible nor raise its optimum. The answers go through
// the compiled plan, so bound-class keying is on the path.
func TestOptimumNeverRisesAsBoundsLoosen(t *testing.T) {
	const steps = 99 // scales 0.050, 0.075, ..., 2.500
	checks, feasible := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			inst, rule := sweepInstance(rng, i)
			objectives := []core.Criterion{core.Energy}
			if rule == mapping.Interval {
				objectives = []core.Criterion{core.Period, core.Latency, core.Energy}
			}
			for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
				pl, err := Compile(&inst, rule, model)
				if err != nil {
					t.Fatal(err)
				}
				for _, obj := range objectives {
					what := fmt.Sprintf("seed %d instance %d %v %v", seed, i, model, obj)
					prev, prevOK := 0.0, false
					for k := 0; k < steps; k++ {
						scale := 0.05 + 0.025*float64(k)
						bounds := make([]float64, len(inst.Apps))
						for a := range bounds {
							bounds[a] = scale * chainCost(&inst, a)
						}
						q := Query{Objective: obj, PeriodBounds: bounds}
						if obj == core.Period {
							q = Query{Objective: obj, LatencyBounds: bounds}
						}
						res, err := pl.Solve(q)
						switch {
						case errors.Is(err, core.ErrInfeasible):
							if prevOK {
								t.Fatalf("%s: feasible at scale %.3f, infeasible at %.3f", what, scale-0.025, scale)
							}
						case err != nil:
							t.Fatalf("%s at scale %.3f: %v", what, scale, err)
						case res.Method == core.MethodExact || res.Method == core.MethodHeuristic:
							t.Fatalf("%s: a polynomial cell answered by %q", what, res.Method)
						case prevOK && !fmath.LE(res.Value, prev):
							t.Fatalf("%s: optimum rose from %v to %v as the bound scale loosened from %.3f to %.3f",
								what, prev, res.Value, scale-0.025, scale)
						}
						if k > 0 {
							checks++
						}
						if err == nil {
							feasible++
							prev, prevOK = res.Value, true
						}
					}
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible query: the guard checks nothing")
	}
	t.Logf("%d checks, %d feasible answers", checks, feasible)
}
