package repl_test

import (
	"math/rand"
	"testing"

	"repro/internal/algo/interval"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/repl"
	"repro/internal/workload"
)

// twoStageInstance: one heavy stage dominating the period, plenty of
// identical processors.
func twoStageInstance(p int) pipeline.Instance {
	return pipeline.Instance{
		Apps: []pipeline.Application{{
			Name: "heavy", In: 0, Weight: 1,
			Stages: []pipeline.Stage{{Work: 2, Out: 0}, {Work: 12, Out: 0}},
		}},
		Platform: pipeline.NewHomogeneousPlatform(p, []float64{2}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
}

func TestReplicationHalvesBottleneck(t *testing.T) {
	inst := twoStageInstance(3)
	// Without replication: best split puts stage 2 alone: period 6.
	_, plain, err := interval.MinPeriodFullyHom(&inst, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(plain, 6) {
		t.Fatalf("plain period = %g, want 6", plain)
	}
	// With replication the DP does even better than splitting: the whole
	// chain (work 14) replicated on all three processors gives
	// (14/2)/3 = 7/3, beating both the split (6) and the two-replica
	// bottleneck split (max(1, 6/2) = 3).
	rm, replicated, err := repl.MinPeriodFullyHom(&inst, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(replicated, 14.0/6.0) {
		t.Fatalf("replicated period = %g, want 14/6 (mapping %s)", replicated, rm.String())
	}
	if !fmath.EQ(repl.AppLatency(&inst, &rm, 0), 7) {
		t.Errorf("latency = %g, want 7 (whole chain on one speed-2 replica)", repl.AppLatency(&inst, &rm, 0))
	}
	if !fmath.EQ(repl.Energy(&inst, &rm), 12) {
		t.Errorf("energy = %g, want 12 (three processors at speed 2)", repl.Energy(&inst, &rm))
	}
}

func TestLiftMatchesPlainEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 100; trial++ {
		cfg := workload.DefaultConfig()
		cfg.Class = []pipeline.Class{pipeline.FullyHomogeneous, pipeline.CommHomogeneous, pipeline.FullyHeterogeneous}[trial%3]
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatal(err)
		}
		rm := repl.Lift(&m)
		if err := rm.Validate(&inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			if !fmath.EQ(repl.Period(&inst, &rm, model), mapping.Period(&inst, &m, model)) {
				t.Fatalf("trial %d: lifted period differs", trial)
			}
		}
		if !fmath.EQ(repl.Latency(&inst, &rm), mapping.Latency(&inst, &m)) {
			t.Fatalf("trial %d: lifted latency differs", trial)
		}
		if !fmath.EQ(repl.Energy(&inst, &rm), mapping.Energy(&inst, &m)) {
			t.Fatalf("trial %d: lifted energy differs", trial)
		}
	}
}

// TestDPMatchesExactReplicated: the replicated chain DP equals exhaustive
// search over replicated mappings on small fully homogeneous instances.
func TestDPMatchesExactReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 25; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 3 + rng.Intn(2), Modes: 1,
			Class: pipeline.FullyHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 5,
		}
		inst := workload.MustInstance(rng, cfg)
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		rm, got, err := repl.MinPeriodFullyHom(&inst, model)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := rm.Validate(&inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(repl.Period(&inst, &rm, model), got) {
			t.Fatalf("trial %d: reported %g, mapping evaluates to %g", trial, got, repl.Period(&inst, &rm, model))
		}
		_, want, err := repl.ExactMinPeriod(&inst, model, 50_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(got, want) {
			t.Fatalf("trial %d (%v): DP %g, oracle %g", trial, model, got, want)
		}
	}
}

// TestReplicationNeverHurtsPeriod: the replicated optimum is never worse
// than the plain interval optimum, and the replicated latency is never
// better than the plain mapping's latency on the same partition shape.
func TestReplicationNeverHurtsPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 30; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 4,
			Procs: 4 + rng.Intn(3), Modes: 2,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 4, MaxSpeed: 6,
		}
		inst := workload.MustInstance(rng, cfg)
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		_, plain, err := interval.MinPeriodFullyHom(&inst, model)
		if err != nil {
			t.Fatal(err)
		}
		_, replicated, err := repl.MinPeriodFullyHom(&inst, model)
		if err != nil {
			t.Fatal(err)
		}
		if fmath.GT(replicated, plain) {
			t.Fatalf("trial %d: replication degraded the period: %g > %g", trial, replicated, plain)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	inst := twoStageInstance(3)
	bad := repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 1, Replicas: []repl.Replica{{Proc: 0, Mode: 0}, {Proc: 0, Mode: 0}}},
	}}}}
	if err := bad.Validate(&inst); err == nil {
		t.Error("duplicate replica processor accepted")
	}
	bad = repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 1, Replicas: nil},
	}}}}
	if err := bad.Validate(&inst); err == nil {
		t.Error("empty replica set accepted")
	}
	bad = repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 0, Replicas: []repl.Replica{{Proc: 0, Mode: 5}}},
		{From: 1, To: 1, Replicas: []repl.Replica{{Proc: 1, Mode: 0}}},
	}}}}
	if err := bad.Validate(&inst); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestWrongPlatformError(t *testing.T) {
	inst := pipeline.MotivatingExample()
	if _, _, err := repl.MinPeriodFullyHom(&inst, pipeline.Overlap); err == nil {
		t.Error("comm-hom platform accepted by fully-hom replication DP")
	}
}

func TestGroupBandwidthWorstCase(t *testing.T) {
	// Heterogeneous links: the analytic transfer time must use the worst
	// pair bandwidth.
	inst := pipeline.Instance{
		Apps: []pipeline.Application{{
			Stages: []pipeline.Stage{{Work: 1, Out: 6}, {Work: 1, Out: 0}},
			Weight: 1,
		}},
		Platform: pipeline.NewHeterogeneousPlatform(
			[][]float64{{1}, {1}, {1}},
			[][]float64{{0, 2, 3}, {2, 0, 6}, {3, 6, 0}},
			[][]float64{{1, 1, 1}},
			[][]float64{{1, 1, 1}},
		),
		Energy: pipeline.DefaultEnergy,
	}
	// Stage 1 on P0; stage 2 replicated on P1 and P2. Worst bandwidth
	// from P0 to {P1, P2} is 2, so the transfer takes 3. The receivers
	// share it (3/2 each per data set) but the single sender's out-port
	// pays it for every data set: the period is 3, not 1.5 — downstream
	// replication cannot fix a sender-side communication bottleneck.
	rm := repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 0, Replicas: []repl.Replica{{Proc: 0, Mode: 0}}},
		{From: 1, To: 1, Replicas: []repl.Replica{{Proc: 1, Mode: 0}, {Proc: 2, Mode: 0}}},
	}}}}
	if err := rm.Validate(&inst); err != nil {
		t.Fatal(err)
	}
	if got := repl.AppPeriod(&inst, &rm, 0, pipeline.Overlap); !fmath.EQ(got, 3) {
		t.Errorf("period = %g, want 3 (sender out-port bottleneck)", got)
	}
	if got := repl.AppLatency(&inst, &rm, 0); !fmath.EQ(got, 1+3+1) {
		t.Errorf("latency = %g, want 5", got)
	}
	// Replication does divide an input-side transfer from the virtual
	// input processor, which is never a shared-port bottleneck: a single
	// stage of work 1 with input size 6 over bandwidth 1, replicated on
	// two processors, runs at period max(6, 1)/2 = 3 instead of 6.
	inInst := pipeline.Instance{
		Apps: []pipeline.Application{{
			In:     6,
			Stages: []pipeline.Stage{{Work: 1, Out: 0}},
			Weight: 1,
		}},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	rm2 := repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 0, Replicas: []repl.Replica{{Proc: 0, Mode: 0}, {Proc: 1, Mode: 0}}},
	}}}}
	if err := rm2.Validate(&inInst); err != nil {
		t.Fatal(err)
	}
	if got := repl.AppPeriod(&inInst, &rm2, 0, pipeline.Overlap); !fmath.EQ(got, 3) {
		t.Errorf("input-side replicated period = %g, want 3", got)
	}
}

// TestEnergyDPMatchesExactReplicated: the replicated energy DP equals the
// exhaustive all-modes oracle on small fully homogeneous instances.
func TestEnergyDPMatchesExactReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	checked := 0
	for trial := 0; trial < 25; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 3, Modes: 2,
			Class: pipeline.FullyHomogeneous, MaxWork: 6, MaxData: 3, MaxSpeed: 5,
		}
		inst := workload.MustInstance(rng, cfg)
		inst.Energy = pipeline.EnergyModel{Static: float64(rng.Intn(2)), Alpha: 2 + float64(rng.Intn(2))}
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		// Bound between the replicated optimum and the sequential period.
		_, fastest, err := repl.MinPeriodFullyHom(&inst, model)
		if err != nil {
			t.Fatal(err)
		}
		bounds := make([]float64, len(inst.Apps))
		for a := range bounds {
			bounds[a] = fastest * (1.2 + rng.Float64())
		}
		rm, got, err := repl.MinEnergyGivenPeriodFullyHom(&inst, model, bounds)
		_, want, werr := repl.ExactMinEnergyGivenPeriod(&inst, model, bounds, 200_000_000)
		if (err != nil) != (werr != nil) {
			t.Fatalf("trial %d: feasibility mismatch: dp=%v oracle=%v", trial, err, werr)
		}
		if err != nil {
			continue
		}
		checked++
		if err := rm.Validate(&inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(repl.Energy(&inst, &rm), got) {
			t.Fatalf("trial %d: reported energy %g, mapping evaluates to %g", trial, got, repl.Energy(&inst, &rm))
		}
		for a := range inst.Apps {
			if tp := repl.AppPeriod(&inst, &rm, a, model); !fmath.LE(tp, bounds[a]) {
				t.Fatalf("trial %d: period bound violated", trial)
			}
		}
		if !fmath.EQ(got, want) {
			t.Fatalf("trial %d (%v): DP energy %g, oracle %g (bounds %v)", trial, model, got, want, bounds)
		}
	}
	if checked == 0 {
		t.Fatal("no feasible trials")
	}
}

// TestReplicationSavesEnergyWithSteepAlpha: with a steep dynamic exponent,
// meeting a throughput target with several slow replicas is cheaper than
// one fast processor: k*(s^a) < (k*s)^a.
func TestReplicationSavesEnergyWithSteepAlpha(t *testing.T) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{{
			Stages: []pipeline.Stage{{Work: 8}},
			Weight: 1,
		}},
		Platform: pipeline.NewHomogeneousPlatform(4, []float64{1, 2, 4}, 1, 1),
		Energy:   pipeline.EnergyModel{Alpha: 3},
	}
	bounds := []float64{2} // work 8 at speed 4 alone, or 4 replicas at speed 1
	// Plain interval mapping: a single stage cannot be split, so one
	// processor must run at speed 4: energy 64.
	_, plain, err := interval.MinEnergyGivenPeriodFullyHom(&inst, pipeline.Overlap, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(plain, 64) {
		t.Fatalf("plain energy = %g, want 64", plain)
	}
	rm, replicated, err := repl.MinEnergyGivenPeriodFullyHom(&inst, pipeline.Overlap, bounds)
	if err != nil {
		t.Fatal(err)
	}
	// 4 replicas at speed 1: period 8/(1*4) = 2, energy 4*1 = 4.
	if !fmath.EQ(replicated, 4) {
		t.Fatalf("replicated energy = %g, want 4 (mapping %s)", replicated, rm.String())
	}
	// And the replicated optimum can never exceed the plain optimum.
	if fmath.GT(replicated, plain) {
		t.Fatal("replication degraded the energy optimum")
	}
}

// TestReplHeurGapOnHetPlatforms: the replicated annealer stays within 1.5x
// of the exhaustive replicated optimum on small heterogeneous instances
// (where the problem is NP-hard) and is usually optimal.
func TestReplHeurGapOnHetPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	hits, trials := 0, 15
	for trial := 0; trial < trials; trial++ {
		cfg := workload.Config{
			Apps: 1, MinStages: 1, MaxStages: 3,
			Procs: 3 + rng.Intn(2), Modes: 1,
			Class: pipeline.FullyHeterogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6, MaxBandwidth: 3,
		}
		inst := workload.MustInstance(rng, cfg)
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		rm, got, err := repl.HeurMinPeriod(rng, &inst, model, repl.HeurOptions{Iters: 2000, Restarts: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := rm.Validate(&inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(repl.Period(&inst, &rm, model), got) {
			t.Fatalf("trial %d: value/mapping mismatch", trial)
		}
		_, want, err := repl.ExactMinPeriod(&inst, model, 100_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fmath.LT(got, want) {
			t.Fatalf("trial %d: heuristic %g beats the exhaustive optimum %g", trial, got, want)
		}
		if got > want*1.5+fmath.Eps {
			t.Errorf("trial %d: replicated heuristic gap too large: %g vs %g", trial, got, want)
		}
		if fmath.EQ(got, want) {
			hits++
		}
	}
	if hits < trials/2 {
		t.Errorf("replicated heuristic optimal on only %d/%d trials", hits, trials)
	}
}

// TestReplHeurMatchesDPOnFullyHom: on fully homogeneous instances the
// annealer should approach the polynomial replicated DP.
func TestReplHeurMatchesDPOnFullyHom(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 10; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 4, Modes: 2,
			Class: pipeline.FullyHomogeneous, MaxWork: 8, MaxData: 3, MaxSpeed: 5,
		}
		inst := workload.MustInstance(rng, cfg)
		_, want, err := repl.MinPeriodFullyHom(&inst, pipeline.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := repl.HeurMinPeriod(rng, &inst, pipeline.Overlap, repl.HeurOptions{Iters: 3000, Restarts: 3})
		if err != nil {
			t.Fatal(err)
		}
		if fmath.LT(got, want) {
			t.Fatalf("trial %d: heuristic %g beats the DP optimum %g", trial, got, want)
		}
		if got > want*1.3+fmath.Eps {
			t.Errorf("trial %d: heuristic %g too far from DP optimum %g", trial, got, want)
		}
	}
}

// TestReplHeurDeterministic: equal seeds, equal results.
func TestReplHeurDeterministic(t *testing.T) {
	inst := workload.StreamingCenter(8)
	run := func() float64 {
		rng := rand.New(rand.NewSource(42))
		_, v, err := repl.HeurMinPeriod(rng, &inst, pipeline.Overlap, repl.HeurOptions{Iters: 800, Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %g vs %g", a, b)
	}
}
