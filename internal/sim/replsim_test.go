package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/repl"
	"repro/internal/workload"
)

// TestReplicatedSimMatchesAnalyticRandom is the replication counterpart of
// the Equations 3-5 validation: on random instances with random replicated
// mappings, the round-robin ASAP execution must reproduce the analytic
// replicated period and worst-path latency exactly, under both
// communication models and all platform classes.
func TestReplicatedSimMatchesAnalyticRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	classes := []pipeline.Class{pipeline.FullyHomogeneous, pipeline.CommHomogeneous, pipeline.FullyHeterogeneous}
	for trial := 0; trial < 200; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 5,
			Procs: 4 + rng.Intn(5), Modes: 1 + rng.Intn(3),
			Class:   classes[trial%len(classes)],
			MaxWork: 9, MaxData: 6, MaxSpeed: 7, MaxBandwidth: 4,
		}
		inst := workload.MustInstance(rng, cfg)
		rm, err := workload.RandomReplicated(rng, &inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			if err := VerifyReplicated(&inst, &rm, model, 1e-9); err != nil {
				t.Fatalf("trial %d (class %v): %v\nmapping: %s", trial, cfg.Class, err, rm.String())
			}
		}
	}
}

// TestReplicatedSimSingleReplicaEqualsPlain: a lifted plain mapping must
// behave identically, bit for bit, in both entry points.
func TestReplicatedSimSingleReplicaEqualsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		inst := workload.MustInstance(rng, workload.DefaultConfig())
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatal(err)
		}
		rm := repl.Lift(&m)
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			plain, err := Simulate(&inst, &m, model, Options{Datasets: 100})
			if err != nil {
				t.Fatal(err)
			}
			lifted, err := SimulateReplicated(&inst, &rm, model, Options{Datasets: 100})
			if err != nil {
				t.Fatal(err)
			}
			for a := range plain {
				p, l := plain[a], lifted[a]
				for i := range p.Departures {
					if math.Float64bits(p.Departures[i]) != math.Float64bits(l.Departures[i]) {
						t.Fatalf("trial %d app %d dataset %d: plain %g vs lifted %g (%v)",
							trial, a, i, p.Departures[i], l.Departures[i], model)
					}
				}
				for _, f := range [][2]float64{{p.FirstLatency, l.FirstLatency}, {p.SteadyPeriod, l.SteadyPeriod}, {p.MaxLatency, l.MaxLatency}} {
					if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
						t.Fatalf("trial %d app %d: plain summary %g vs lifted %g (%v)", trial, a, f[0], f[1], model)
					}
				}
			}
		}
	}
}

// TestReplicatedThroughputGain: replicating the bottleneck genuinely
// doubles the measured throughput.
func TestReplicatedThroughputGain(t *testing.T) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{{
			Stages: []pipeline.Stage{{Work: 1, Out: 0}, {Work: 8, Out: 0}},
			Weight: 1,
		}},
		Platform: pipeline.NewHomogeneousPlatform(3, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	plain := repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 0, Replicas: []repl.Replica{{Proc: 0}}},
		{From: 1, To: 1, Replicas: []repl.Replica{{Proc: 1}}},
	}}}}
	doubled := repl.Mapping{Apps: []repl.AppMapping{{Intervals: []repl.Interval{
		{From: 0, To: 0, Replicas: []repl.Replica{{Proc: 0}}},
		{From: 1, To: 1, Replicas: []repl.Replica{{Proc: 1}, {Proc: 2}}},
	}}}}
	rp, err := SimulateReplicated(&inst, &plain, pipeline.Overlap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := SimulateReplicated(&inst, &doubled, pipeline.Overlap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rp[0].SteadyPeriod-8) > 1e-9 {
		t.Errorf("plain period = %g, want 8", rp[0].SteadyPeriod)
	}
	if math.Abs(rd[0].SteadyPeriod-4) > 1e-9 {
		t.Errorf("replicated period = %g, want 4", rd[0].SteadyPeriod)
	}
}

// TestReleaseIntervalThrottlesPlainSim: with releases slower than the
// bottleneck, the measured inter-departure time equals the release
// interval; the per-dataset latency collapses to the first-dataset value.
func TestReleaseIntervalThrottlesPlainSim(t *testing.T) {
	inst := workload.StreamingCenter(8)
	rng := rand.New(rand.NewSource(46))
	m, err := workload.RandomMapping(rng, &inst)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Simulate(&inst, &m, pipeline.Overlap, Options{Datasets: 80, ReleaseInterval: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for a, r := range results {
		if math.Abs(r.SteadyPeriod-1e6) > 1 {
			t.Errorf("app %d: throttled period = %g, want 1e6", a, r.SteadyPeriod)
		}
		if math.Abs(r.MaxLatency-r.FirstLatency) > 1e-9 {
			t.Errorf("app %d: idle-pipeline latency %g differs from first %g", a, r.MaxLatency, r.FirstLatency)
		}
	}
}

// TestReplicatedRejectsInvalid mirrors the plain simulator's behaviour.
func TestReplicatedRejectsInvalid(t *testing.T) {
	inst := pipeline.MotivatingExample()
	bad := repl.Mapping{Apps: []repl.AppMapping{{}}}
	if _, err := SimulateReplicated(&inst, &bad, pipeline.Overlap, Options{}); err == nil {
		t.Error("invalid replicated mapping accepted")
	}
}
