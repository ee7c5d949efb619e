package mapping_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRelabelingInvarianceFullyHom: on fully homogeneous platforms, the
// metrics of a mapping are invariant under any permutation of the enrolled
// processors.
func TestRelabelingInvarianceFullyHom(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 60; trial++ {
		cfg := workload.DefaultConfig()
		cfg.Class = pipeline.FullyHomogeneous
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(inst.Platform.NumProcessors())
		relabeled := m.Clone()
		for a := range relabeled.Apps {
			for j := range relabeled.Apps[a].Intervals {
				relabeled.Apps[a].Intervals[j].Proc = perm[relabeled.Apps[a].Intervals[j].Proc]
			}
		}
		if err := relabeled.Validate(&inst, mapping.Interval); err != nil {
			t.Fatal(err)
		}
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			if !fmath.EQ(mapping.Period(&inst, &m, model), mapping.Period(&inst, &relabeled, model)) {
				t.Fatalf("trial %d: period not relabeling-invariant", trial)
			}
		}
		if !fmath.EQ(mapping.Latency(&inst, &m), mapping.Latency(&inst, &relabeled)) {
			t.Fatalf("trial %d: latency not relabeling-invariant", trial)
		}
		if !fmath.EQ(mapping.Energy(&inst, &m), mapping.Energy(&inst, &relabeled)) {
			t.Fatalf("trial %d: energy not relabeling-invariant", trial)
		}
	}
}

// TestSpeedMonotonicity: raising any interval's mode never increases the
// period or the latency, and never decreases the energy.
func TestSpeedMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 80; trial++ {
		cfg := workload.DefaultConfig()
		cfg.Modes = 3
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatal(err)
		}
		// Pick an interval with headroom.
		a := rng.Intn(len(m.Apps))
		j := rng.Intn(len(m.Apps[a].Intervals))
		iv := &m.Apps[a].Intervals[j]
		if iv.Mode >= inst.Platform.Processors[iv.Proc].NumModes()-1 {
			continue
		}
		before := mapping.Evaluate(&inst, &m, pipeline.Overlap)
		iv.Mode++
		after := mapping.Evaluate(&inst, &m, pipeline.Overlap)
		if fmath.GT(after.Period, before.Period) {
			t.Fatalf("trial %d: speeding up increased the period", trial)
		}
		if fmath.GT(after.Latency, before.Latency) {
			t.Fatalf("trial %d: speeding up increased the latency", trial)
		}
		if fmath.LT(after.Energy, before.Energy) {
			t.Fatalf("trial %d: speeding up decreased the energy", trial)
		}
	}
}

// TestBandwidthMonotonicity: uniformly increasing all bandwidths never
// increases period or latency.
func TestBandwidthMonotonicity(t *testing.T) {
	f := func(seed int64, boost uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			return false
		}
		before := mapping.Evaluate(&inst, &m, pipeline.NoOverlap)
		factor := 1 + float64(boost%7)
		fast := inst.Clone()
		for u := range fast.Platform.Bandwidth {
			for v := range fast.Platform.Bandwidth[u] {
				fast.Platform.Bandwidth[u][v] *= factor
			}
		}
		for a := range fast.Platform.InBandwidth {
			for u := range fast.Platform.InBandwidth[a] {
				fast.Platform.InBandwidth[a][u] *= factor
				fast.Platform.OutBandwidth[a][u] *= factor
			}
		}
		after := mapping.Evaluate(&fast, &m, pipeline.NoOverlap)
		return fmath.LE(after.Period, before.Period) && fmath.LE(after.Latency, before.Latency)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorAgreesWithEvalQuick: quick-generated shapes, the simulator
// is the ground truth for the analytic evaluation.
func TestSimulatorAgreesWithEvalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 5,
			Procs: 3 + rng.Intn(4), Modes: 1 + rng.Intn(2),
			Class:   pipeline.Class(rng.Intn(3)),
			MaxWork: 9, MaxData: 5, MaxSpeed: 6, MaxBandwidth: 4,
		}
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			return false
		}
		model := pipeline.CommModel(rng.Intn(2))
		return sim.Verify(&inst, &m, model, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPowerTableEnergyBitIdentical: the tabulated energy equals Energy bit
// for bit on random mappings under several energy models, so a search can
// swap one for the other without changing any answer.
func TestPowerTableEnergyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	models := []pipeline.EnergyModel{pipeline.DefaultEnergy, {Static: 0.5, Alpha: 3}, {Static: 2, Alpha: 2.5}}
	for trial := 0; trial < 60; trial++ {
		cfg := workload.DefaultConfig()
		cfg.Class = pipeline.FullyHeterogeneous
		cfg.Energy = models[trial%len(models)]
		inst := workload.MustInstance(rng, cfg)
		pt := mapping.NewPowerTable(&inst)
		for k := 0; k < 5; k++ {
			m, err := workload.RandomMapping(rng, &inst)
			if err != nil {
				t.Fatal(err)
			}
			//lint:allow floatcmp the table must reproduce Energy bit for bit
			if got, want := pt.Energy(&m), mapping.Energy(&inst, &m); got != want {
				t.Fatalf("trial %d: table energy %v, Energy %v", trial, got, want)
			}
		}
	}
}

// TestCopyFromReusesBuffers: CopyFrom makes a deep copy, and copying a
// mapping of the same shape again allocates nothing.
func TestCopyFromReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	inst := workload.MustInstance(rng, workload.DefaultConfig())
	src, err := workload.RandomMapping(rng, &inst)
	if err != nil {
		t.Fatal(err)
	}
	var dst mapping.Mapping
	dst.CopyFrom(&src)
	if dst.String() != src.String() {
		t.Fatalf("copy %v differs from source %v", dst.String(), src.String())
	}
	dst.Apps[0].Intervals[0].Mode++
	if dst.String() == src.String() {
		t.Fatal("copy shares interval buffers with its source")
	}
	if allocs := testing.AllocsPerRun(10, func() { dst.CopyFrom(&src) }); allocs != 0 {
		t.Errorf("repeat CopyFrom allocated %v times, want 0", allocs)
	}
	if dst.String() != src.String() {
		t.Fatalf("recopy %v differs from source %v", dst.String(), src.String())
	}
}
