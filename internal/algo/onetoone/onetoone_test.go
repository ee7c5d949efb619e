package onetoone

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// smallCommHom draws a random communication homogeneous instance with
// enough processors for a one-to-one mapping, small enough for the oracle.
func smallCommHom(rng *rand.Rand) pipeline.Instance {
	cfg := workload.Config{
		Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
		Procs: 1, Modes: 1 + rng.Intn(3),
		Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 7,
	}
	inst := workload.MustInstance(rng, cfg)
	// Re-generate the platform with p >= N (+ a few spare processors).
	cfg.Procs = inst.TotalStages() + rng.Intn(2)
	inst.Platform = workload.Platform(rng, cfg)
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// TestMinPeriodCommHomMatchesOracle verifies Theorem 1 on random
// communication homogeneous instances under both communication models,
// with and without weights.
func TestMinPeriodCommHomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 60; trial++ {
		inst := smallCommHom(rng)
		if trial%3 == 0 {
			inst.Apps[0].Weight = float64(1 + rng.Intn(3))
		}
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			m, got, err := MinPeriodCommHom(&inst, model)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := m.Validate(&inst, mapping.OneToOne); err != nil {
				t.Fatalf("trial %d: invalid mapping: %v", trial, err)
			}
			if !fmath.EQ(mapping.Period(&inst, &m, model), got) {
				t.Fatalf("trial %d: reported %g but mapping period is %g", trial, got, mapping.Period(&inst, &m, model))
			}
			want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: model})
			if err != nil {
				t.Fatalf("trial %d oracle: %v", trial, err)
			}
			if !fmath.EQ(got, want.Value) {
				t.Fatalf("trial %d (%v): period %g, oracle %g", trial, model, got, want.Value)
			}
		}
	}
}

// TestGreedyUsesFastestProcessors checks the slowest-first greedy picks a
// workable assignment even when only the fastest processors can meet the
// optimal period.
func TestGreedyUsesFastestProcessors(t *testing.T) {
	// Stage works 4 and 4, processors of speeds 1, 1, 4, 4: period 1 is
	// achievable only on the two fast processors.
	inst := pipeline.Instance{
		Apps: []pipeline.Application{{Stages: []pipeline.Stage{{Work: 4}, {Work: 4}}, Weight: 1}},
		Platform: pipeline.NewCommHomogeneousPlatform(
			[][]float64{{1}, {1}, {4}, {4}}, 1, 1),
		Energy: pipeline.DefaultEnergy,
	}
	m, got, err := MinPeriodCommHom(&inst, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(got, 1) {
		t.Errorf("period = %g, want 1", got)
	}
	for _, iv := range m.Apps[0].Intervals {
		if iv.Proc != 2 && iv.Proc != 3 {
			t.Errorf("stage placed on slow processor %d", iv.Proc)
		}
	}
}

func TestMinLatencyFullyHom(t *testing.T) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{
			{In: 1, Stages: []pipeline.Stage{{Work: 2, Out: 3}, {Work: 4, Out: 1}}, Weight: 1},
		},
		Platform: pipeline.NewHomogeneousPlatform(3, []float64{2}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	m, got, err := MinLatencyFullyHom(&inst)
	if err != nil {
		t.Fatal(err)
	}
	// Latency = 1/1 + 2/2 + 3/1 + 4/2 + 1/1 = 8, whatever the placement.
	if !fmath.EQ(got, 8) {
		t.Errorf("latency = %g, want 8", got)
	}
	want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.EQ(got, want.Value) {
		t.Errorf("latency %g, oracle %g", got, want.Value)
	}
	if err := m.Validate(&inst, mapping.OneToOne); err != nil {
		t.Errorf("invalid mapping: %v", err)
	}
}

// TestAllOneToOneEquivalentFullyHom property: on fully homogeneous
// platforms every one-to-one mapping has the same latency (Theorem 8) and
// the same period (any permutation is optimal).
func TestAllOneToOneEquivalentFullyHom(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for trial := 0; trial < 20; trial++ {
		cfg := workload.Config{
			Apps: 1, MinStages: 2, MaxStages: 3,
			Procs: 4, Modes: 1,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 5,
		}
		inst := workload.MustInstance(rng, cfg)
		var lats []float64
		err := exact.Enumerate(&inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, func(m *mapping.Mapping) error {
			lats = append(lats, mapping.Latency(&inst, m))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lats {
			if !fmath.EQ(l, lats[0]) {
				t.Fatalf("trial %d: one-to-one latencies differ on fully hom platform: %v", trial, lats)
			}
		}
	}
}

func TestPreconditionErrors(t *testing.T) {
	inst := pipeline.MotivatingExample() // 7 stages, 3 processors
	if _, _, err := MinPeriodCommHom(&inst, pipeline.Overlap); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("undersized platform: %v", err)
	}
	het := inst.Clone()
	het.Platform.Bandwidth[0][1] = 5
	het.Platform.Bandwidth[1][0] = 5
	if _, _, err := MinPeriodCommHom(&het, pipeline.Overlap); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("heterogeneous platform: %v", err)
	}
	if _, _, err := MinLatencyFullyHom(&inst); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("comm-hom platform for fully-hom algorithm: %v", err)
	}
}
