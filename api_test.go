package repro

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fmath"
)

// TestPublicAPIGenerateInstance exercises the corpus generator export:
// deterministic draws, valid instances, and solvable requests.
func TestPublicAPIGenerateInstance(t *testing.T) {
	for i := 0; i < 36; i++ {
		inst, req := GenerateInstance(1, i)
		inst2, req2 := GenerateInstance(1, i)
		if !reflect.DeepEqual(inst, inst2) || !reflect.DeepEqual(req, req2) {
			t.Fatalf("draw %d not deterministic", i)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("draw %d: invalid instance: %v", i, err)
		}
		if _, err := Solve(&inst, req); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("draw %d: solve failed: %v", i, err)
		}
	}
	inst, _ := GenerateInstance(1, 0)
	other, _ := GenerateInstance(2, 0)
	if reflect.DeepEqual(inst, other) {
		t.Error("different seeds produced identical instances")
	}
}

// TestPublicAPIQuickstart walks the README quick start end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	inst := MotivatingExample()
	res, err := Solve(&inst, Request{
		Rule:         Interval,
		Model:        Overlap,
		Objective:    Energy,
		PeriodBounds: UniformBounds(&inst, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 46) {
		t.Errorf("trade-off energy = %g, want 46", res.Value)
	}
	if err := ValidateMapping(&inst, &res.Mapping, Interval); err != nil {
		t.Error(err)
	}
	if err := VerifyMapping(&inst, &res.Mapping, Overlap, 1e-9); err != nil {
		t.Errorf("simulation disagrees with analytic metrics: %v", err)
	}
	mt := Evaluate(&inst, &res.Mapping, Overlap)
	if !fmath.LE(mt.Period, 2) {
		t.Errorf("period bound violated: %g", mt.Period)
	}
}

// TestPublicAPIOwnCriterionBounds pins that a bound on the objective's
// own criterion constrains the answer: on Figure 1, period bounds below
// the least period leave nothing to answer, and so does an energy budget
// below the least energy under period 2 (46), which a budget of 46 meets.
func TestPublicAPIOwnCriterionBounds(t *testing.T) {
	inst := MotivatingExample()
	if res, err := Solve(&inst, Request{Rule: Interval, Model: Overlap, Objective: Period,
		PeriodBounds: []float64{0.001, 0.001}}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("period under period bounds 0.001: %v (value %g), want ErrInfeasible", err, res.Value)
	}
	energy := func(budget float64) (Result, error) {
		return Solve(&inst, Request{Rule: Interval, Model: Overlap, Objective: Energy,
			PeriodBounds: UniformBounds(&inst, 2), EnergyBudget: budget})
	}
	if res, err := energy(10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("energy under budget 10: %v (value %g), want ErrInfeasible", err, res.Value)
	}
	res, err := energy(46)
	if err != nil {
		t.Fatalf("energy under budget 46: %v", err)
	}
	if !fmath.EQ(res.Value, 46) {
		t.Errorf("energy under budget 46 = %g, want 46", res.Value)
	}
}

// TestPublicAPISolveBatch checks the acceptance criterion of the batch
// engine: SolveBatch returns bit-identical Results to sequential Solve for
// the same jobs, in input order, and reports its dedup work in the stats.
func TestPublicAPISolveBatch(t *testing.T) {
	fig1 := MotivatingExample()
	stream := StreamingCenter(6)
	jobs := []Job{
		{Inst: &fig1, Req: Request{Rule: Interval, Model: Overlap, Objective: Period}},
		{Inst: &fig1, Req: Request{Rule: Interval, Model: Overlap, Objective: Energy,
			PeriodBounds: UniformBounds(&fig1, 2)}},
		{Inst: &stream, Req: Request{Rule: Interval, Objective: Period,
			ExactLimit: 50_000, HeurIters: 800, HeurRestarts: 1}},
		{Inst: &fig1, Req: Request{Rule: Interval, Model: Overlap, Objective: Period}}, // dup of job 0
		{Inst: &fig1, Req: Request{Rule: Interval, Model: Overlap, Objective: Latency}},
	}
	results, stats := SolveBatch(jobs, BatchOptions{})
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, job := range jobs {
		want, wantErr := Solve(job.Inst, job.Req)
		if !errors.Is(results[i].Err, wantErr) {
			t.Fatalf("job %d: error %v, sequential %v", i, results[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(results[i].Result, want) {
			t.Errorf("job %d: batch result differs from sequential Solve", i)
		}
	}
	if stats.CacheHits < 1 {
		t.Errorf("CacheHits = %d, want >= 1 (job 3 duplicates job 0)", stats.CacheHits)
	}
	if stats.Errors != 0 {
		t.Errorf("Errors = %d, want 0", stats.Errors)
	}

	// A shared cache answers a rerun entirely from memory.
	cache := NewSolveCache()
	if _, first := SolveBatch(jobs, BatchOptions{Cache: cache}); first.Jobs != len(jobs) {
		t.Fatal("bad stats from cached batch")
	}
	_, second := SolveBatch(jobs, BatchOptions{Cache: cache})
	if second.CacheHits != len(jobs) {
		t.Errorf("rerun CacheHits = %d, want %d", second.CacheHits, len(jobs))
	}
}

func TestPublicAPIPareto(t *testing.T) {
	inst := MotivatingExample()
	front, err := ParetoPeriodEnergy(&inst, Interval, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	if v := MinEnergyUnderPeriod(front, 2); !fmath.EQ(v, 46) {
		t.Errorf("server problem at period 2: energy %g, want 46", v)
	}
	// At the minimum energy 10 the best period is 6, not the 14 of the
	// paper's illustrative mapping: swapping the applications (App1 on P3,
	// App2 on P1, both slowest modes) also costs 10 but halves the
	// bottleneck. The paper only exhibits one energy-10 mapping, it does
	// not claim period-optimality at that budget.
	if v := MinPeriodUnderEnergy(front, 10); !fmath.EQ(v, 6) {
		t.Errorf("laptop problem at budget 10: period %g, want 6", v)
	}
}

func TestPublicAPIParetoPolynomialPaths(t *testing.T) {
	// Fully homogeneous interval frontier.
	rng := rand.New(rand.NewSource(5))
	inst, err := RandomInstance(rng, WorkloadConfig{
		Apps: 2, MinStages: 2, MaxStages: 4, Procs: 6, Modes: 2,
		Class: FullyHomogeneous, MaxWork: 6, MaxData: 3, MaxSpeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoPeriodEnergy(&inst, Interval, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Period <= front[i-1].Period || front[i].Energy >= front[i-1].Energy {
			t.Error("frontier not strictly monotone")
		}
	}
}

func TestPublicAPISimulate(t *testing.T) {
	inst := StreamingCenter(8)
	res, err := Solve(&inst, Request{Rule: Interval, Objective: Period,
		ExactLimit: 50_000, HeurIters: 800, HeurRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	sims, err := Simulate(&inst, &res.Mapping, Overlap, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 3 {
		t.Fatalf("expected 3 per-application results, got %d", len(sims))
	}
	for a, s := range sims {
		if !fmath.EQ(s.SteadyPeriod, res.Metrics.AppPeriods[a]) {
			t.Errorf("app %d: simulated period %g, analytic %g", a, s.SteadyPeriod, res.Metrics.AppPeriods[a])
		}
	}
}

func TestPublicAPIJSONRoundTrip(t *testing.T) {
	inst := MotivatingExample()
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalStages() != 7 {
		t.Error("round trip lost stages")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	inst := MotivatingExample()
	if _, err := Solve(&inst, Request{Rule: Interval, Objective: Energy}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("want ErrUnsupported, got %v", err)
	}
	if _, err := Solve(&inst, Request{Rule: Interval, Objective: Energy,
		PeriodBounds: UniformBounds(&inst, 0.01)}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestPublicAPIStretch(t *testing.T) {
	inst := MotivatingExample()
	stretched, err := StretchWeights(&inst, Request{Rule: Interval, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(&stretched, Request{Rule: Interval, Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(res.Value, 8.0/7.0) {
		t.Errorf("max stretch = %g, want 8/7", res.Value)
	}
}

func TestPublicAPIPlatformConstructors(t *testing.T) {
	hom := NewHomogeneousPlatform(3, []float64{1, 2}, 1, 1)
	if hom.Classify() != FullyHomogeneous {
		t.Error("homogeneous constructor broken")
	}
	ch := NewCommHomogeneousPlatform([][]float64{{1}, {2}}, 1, 1)
	if ch.Classify() != CommHomogeneous {
		t.Error("comm-homogeneous constructor broken")
	}
	het := NewHeterogeneousPlatform(
		[][]float64{{1}, {2}},
		[][]float64{{0, 3}, {3, 0}},
		[][]float64{{1, 2}},
		[][]float64{{2, 1}},
	)
	if het.Classify() != FullyHeterogeneous {
		t.Error("heterogeneous constructor broken")
	}
}

func TestPublicAPIReplication(t *testing.T) {
	inst := Instance{
		Apps: []Application{{
			Stages: []Stage{{Work: 2, Out: 1}, {Work: 18, Out: 1}, {Work: 2, Out: 1}},
			In:     1, Weight: 1,
		}},
		Platform: NewHomogeneousPlatform(6, []float64{2}, 4, 1),
		Energy:   DefaultEnergy,
	}
	plain, err := Solve(&inst, Request{Rule: Interval, Objective: Period})
	if err != nil {
		t.Fatal(err)
	}
	rm, period, err := ReplicatedMinPeriod(&inst, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.LT(period, plain.Value) {
		t.Errorf("replication did not improve the period: %g vs %g", period, plain.Value)
	}
	if err := VerifyReplicatedMapping(&inst, &rm, Overlap, 1e-9); err != nil {
		t.Error(err)
	}
	mt := EvaluateReplicated(&inst, &rm, Overlap)
	if !fmath.EQ(mt.Period, period) {
		t.Errorf("EvaluateReplicated period %g, reported %g", mt.Period, period)
	}
	// Lifting a plain mapping keeps its metrics.
	lift := LiftMapping(&plain.Mapping)
	lmt := EvaluateReplicated(&inst, &lift, Overlap)
	if !fmath.EQ(lmt.Period, plain.Metrics.Period) || !fmath.EQ(lmt.Energy, plain.Metrics.Energy) {
		t.Error("lifted mapping metrics changed")
	}
	sims, err := SimulateReplicated(&inst, &rm, Overlap, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(sims[0].SteadyPeriod, period) {
		t.Errorf("simulated %g, analytic %g", sims[0].SteadyPeriod, period)
	}
}

func TestPublicAPIReplicatedEnergy(t *testing.T) {
	inst := Instance{
		Apps: []Application{{
			Stages: []Stage{{Work: 8}},
			Weight: 1,
		}},
		Platform: NewHomogeneousPlatform(4, []float64{1, 2, 4}, 1, 1),
		Energy:   EnergyModel{Alpha: 3},
	}
	rm, e, err := ReplicatedMinEnergy(&inst, Overlap, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(e, 4) {
		t.Errorf("replicated energy = %g, want 4 (four speed-1 replicas)", e)
	}
	if err := VerifyReplicatedMapping(&inst, &rm, Overlap, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestPublicAPIGeneralMappings(t *testing.T) {
	inst := Instance{
		Apps: []Application{{
			Stages: []Stage{{Work: 1}, {Work: 5}, {Work: 1}},
			Weight: 1,
		}},
		Platform: NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   DefaultEnergy,
	}
	gm, opt, err := GeneralMinPeriod(&inst, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(opt, 5) {
		t.Errorf("general optimum = %g, want 5 (beats the interval optimum 6)", opt)
	}
	if err := gm.Validate(&inst); err != nil {
		t.Error(err)
	}
	_, lpt, err := GeneralLPT(&inst)
	if err != nil {
		t.Fatal(err)
	}
	if fmath.LT(lpt, opt) {
		t.Errorf("LPT %g beats the optimum %g", lpt, opt)
	}
	// Communicating instances are rejected.
	fig1 := MotivatingExample()
	if _, _, err := GeneralMinPeriod(&fig1, 1000); err == nil {
		t.Error("communicating instance accepted by general solver")
	}
}

func TestPublicAPIReplicatedHeuristic(t *testing.T) {
	inst := StreamingCenter(8)
	rm, v, err := ReplicatedHeurMinPeriod(&inst, Overlap, 3, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReplicatedMapping(&inst, &rm, Overlap, 1e-9); err != nil {
		t.Error(err)
	}
	// Replication can use idle processors that plain mappings leave out,
	// so the heuristic should never be worse than the plain heuristic by
	// much; sanity-check against the evaluated mapping only.
	mt := EvaluateReplicated(&inst, &rm, Overlap)
	if !fmath.EQ(mt.Period, v) {
		t.Errorf("reported %g, evaluated %g", v, mt.Period)
	}
}

// TestPublicAPIBatchCtxAndBoundedCache pins the long-running-process
// surface: SolveBatchCtx honours cancellation, NewSolveCacheCap bounds the
// memo, and ParetoPeriodEnergyCtx can be aborted.
func TestPublicAPIBatchCtxAndBoundedCache(t *testing.T) {
	inst := MotivatingExample()
	jobs := []Job{
		{Inst: &inst, Req: Request{Rule: Interval, Objective: Period}},
		{Inst: &inst, Req: Request{Rule: Interval, Objective: Latency}},
	}

	// Background context: identical to SolveBatch.
	got, _ := SolveBatchCtx(context.Background(), jobs, BatchOptions{})
	want, _ := SolveBatch(jobs, BatchOptions{})
	if !reflect.DeepEqual(got, want) {
		t.Error("SolveBatchCtx(background) differs from SolveBatch")
	}

	// Cancelled context: every slot carries the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := SolveBatchCtx(ctx, jobs, BatchOptions{})
	if stats.Errors != len(jobs) {
		t.Errorf("cancelled batch: %d errors for %d jobs", stats.Errors, len(jobs))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if _, err := ParetoPeriodEnergyCtx(ctx, &inst, Interval, Overlap); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled frontier: err = %v, want context.Canceled", err)
	}

	// Bounded cache: the cap is a hard invariant with evictions reported.
	cache := NewSolveCacheCap(1)
	var sweep []Job
	for x := 1; x <= 8; x++ {
		sweep = append(sweep, Job{Inst: &inst, Req: Request{Rule: Interval, Objective: Energy,
			PeriodBounds: UniformBounds(&inst, float64(x))}})
	}
	SolveBatchCtx(context.Background(), sweep, BatchOptions{Cache: cache})
	if n := cache.Len(); n > 1 {
		t.Errorf("cache holds %d entries, cap 1", n)
	}
	st := cache.Stats()
	if st.Cap != 1 || st.Evictions == 0 {
		t.Errorf("cache stats = %+v, want cap 1 with evictions", st)
	}
}

// TestPublicAPIFaultResolve walks the fault-tolerance exports end to end:
// a deterministic fault schedule over the motivating example, injection
// with re-validation, and a failure re-solve with a migration diff.
func TestPublicAPIFaultResolve(t *testing.T) {
	inst := MotivatingExample()
	sched, err := GenerateFaults(7, &inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	sched2, err := GenerateFaults(7, &inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, sched2) {
		t.Fatal("equal seeds produced different fault schedules")
	}
	states, err := InjectFaults(&inst, sched.Events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range states {
		if err := states[i].Inst.Validate(); err != nil {
			t.Fatalf("state %d after %v is invalid: %v", i, states[i].Event, err)
		}
	}

	pl, err := Compile(&inst, Interval, Overlap)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Resolve(pl, PlanQuery{Objective: Period}, FaultEvent{Kind: ProcFail, Proc: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.GE(rr.After.Value, rr.Before.Value) {
		t.Errorf("re-solve after a processor failure improved the period: %g -> %g",
			rr.Before.Value, rr.After.Value)
	}
	if rr.Diff.StagesTotal == 0 {
		t.Error("migration diff reports zero total stages")
	}

	// An event the instance cannot absorb classifies, not crashes.
	single := MotivatingExample()
	single.Platform = NewHomogeneousPlatform(1, []float64{1}, 1, len(single.Apps))
	if _, err := ApplyFault(&single, FaultEvent{Kind: ProcFail, Proc: 0}); !errors.Is(err, ErrFaultInapplicable) {
		t.Errorf("failing the last processor: got %v, want ErrFaultInapplicable", err)
	}
}
