package interval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algo/alloc"
	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// smallFullyHom draws a random fully homogeneous instance small enough for
// the exhaustive oracle.
func smallFullyHom(rng *rand.Rand, modes int) pipeline.Instance {
	cfg := workload.Config{
		Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 4,
		Procs: 3 + rng.Intn(2), Modes: modes,
		Class: pipeline.FullyHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
	}
	return workload.MustInstance(rng, cfg)
}

func models() []pipeline.CommModel {
	return []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}
}

// TestMinPeriodFullyHomMatchesOracle verifies Theorem 3: the DP plus
// Algorithm 2 result equals exhaustive search on random fully homogeneous
// instances, under both communication models.
func TestMinPeriodFullyHomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		inst := smallFullyHom(rng, 1+rng.Intn(2))
		if trial%3 == 0 { // exercise weights
			inst.Apps[0].Weight = float64(1 + rng.Intn(3))
		}
		for _, model := range models() {
			m, got, err := MinPeriodFullyHom(&inst, model)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := m.Validate(&inst, mapping.Interval); err != nil {
				t.Fatalf("trial %d: invalid mapping: %v", trial, err)
			}
			if !fmath.EQ(mapping.Period(&inst, &m, model), got) {
				t.Fatalf("trial %d: reported value %g does not match mapping period %g", trial, got, mapping.Period(&inst, &m, model))
			}
			want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: model})
			if err != nil {
				t.Fatalf("trial %d oracle: %v", trial, err)
			}
			if !fmath.EQ(got, want.Value) {
				t.Fatalf("trial %d (%v): period %g, oracle %g", trial, model, got, want.Value)
			}
		}
	}
}

// TestMinLatencyGivenPeriodMatchesOracle verifies Theorems 15-16.
func TestMinLatencyGivenPeriodMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		inst := smallFullyHom(rng, 1)
		for _, model := range models() {
			// Pick a reachable bound: the single-processor period of each
			// application scaled down a bit.
			bounds := make([]float64, len(inst.Apps))
			speeds, b, _ := homSetup(&inst)
			for a := range inst.Apps {
				dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
				curve, _ := dp.MinPeriod(maxProcsPerApp(&inst))
				bounds[a] = curve[0] * (0.75 + rng.Float64()/2)
				if bounds[a] < curve[len(curve)-1] {
					bounds[a] = curve[len(curve)-1]
				}
			}
			m, got, err := MinLatencyGivenPeriodFullyHom(&inst, model, bounds)
			want, werr := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency, Model: model, PeriodBounds: bounds})
			if (err != nil) != (werr != nil) {
				t.Fatalf("trial %d (%v): feasibility mismatch: dp=%v oracle=%v", trial, model, err, werr)
			}
			if err != nil {
				continue
			}
			if !fmath.EQ(got, want.Value) {
				t.Fatalf("trial %d (%v): latency %g, oracle %g (bounds %v)", trial, model, got, want.Value, bounds)
			}
			for a := range inst.Apps {
				if tp := mapping.AppPeriod(&inst, &m, a, model); !fmath.LE(tp, bounds[a]) {
					t.Fatalf("trial %d: app %d period %g violates bound %g", trial, a, tp, bounds[a])
				}
			}
		}
	}
}

// TestMinPeriodGivenLatencyMatchesOracle verifies the binary-search
// direction of Theorem 15.
func TestMinPeriodGivenLatencyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 40; trial++ {
		inst := smallFullyHom(rng, 1)
		for _, model := range models() {
			// Latency bound: whole-app latency inflated a bit, so always
			// feasible.
			bounds := make([]float64, len(inst.Apps))
			speeds, b, _ := homSetup(&inst)
			for a := range inst.Apps {
				dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
				l, _, _ := dp.MinLatencyGivenPeriod(1, math.Inf(1))
				bounds[a] = l * (1 + rng.Float64())
			}
			m, got, err := MinPeriodGivenLatencyFullyHom(&inst, model, bounds)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: model, LatencyBounds: bounds})
			if err != nil {
				t.Fatalf("trial %d oracle: %v", trial, err)
			}
			if !fmath.EQ(got, want.Value) {
				t.Fatalf("trial %d (%v): period %g, oracle %g", trial, model, got, want.Value)
			}
			for a := range inst.Apps {
				if l := mapping.AppLatency(&inst, &m, a); !fmath.LE(l, bounds[a]) {
					t.Fatalf("trial %d: app %d latency %g violates bound %g", trial, a, l, bounds[a])
				}
			}
		}
	}
}

// TestMinEnergyGivenPeriodMatchesOracle verifies Theorems 18 and 21.
func TestMinEnergyGivenPeriodMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		inst := smallFullyHom(rng, 2+rng.Intn(2))
		inst.Energy = pipeline.EnergyModel{Static: float64(rng.Intn(3)), Alpha: 2 + float64(rng.Intn(2))}
		for _, model := range models() {
			bounds := make([]float64, len(inst.Apps))
			speeds, b, _ := homSetup(&inst)
			for a := range inst.Apps {
				dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
				curve, _ := dp.MinPeriod(maxProcsPerApp(&inst))
				// Between the best parallel period and the sequential one.
				bounds[a] = curve[len(curve)-1] + rng.Float64()*(curve[0]-curve[len(curve)-1]+1)
			}
			_, got, err := MinEnergyGivenPeriodFullyHom(&inst, model, bounds)
			want, werr := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: model, PeriodBounds: bounds})
			if (err != nil) != (werr != nil) {
				t.Fatalf("trial %d (%v): feasibility mismatch: dp=%v oracle=%v", trial, model, err, werr)
			}
			if err != nil {
				continue
			}
			if !fmath.EQ(got, want.Value) {
				t.Fatalf("trial %d (%v): energy %g, oracle %g (bounds %v)", trial, model, got, want.Value, bounds)
			}
		}
	}
}

// TestTriCriteriaUniModalMatchesOracle verifies the Theorem 24 variants on
// uni-modal fully homogeneous platforms.
func TestTriCriteriaUniModalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 30; trial++ {
		inst := smallFullyHom(rng, 1)
		model := models()[trial%2]
		perProc := inst.Energy.Power(inst.Platform.Processors[0].Speeds[0])
		budget := perProc * float64(len(inst.Apps)+rng.Intn(inst.Platform.NumProcessors()))
		loose := make([]float64, len(inst.Apps))
		for a := range loose {
			loose[a] = 1e9
		}
		m, got, err := MinPeriodGivenLatencyEnergyUniModal(&inst, model, loose, budget)
		if errors.Is(err, ErrInfeasible) || errors.Is(err, ErrWrongPlatform) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, werr := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Period, Model: model, LatencyBounds: loose, EnergyBudget: budget})
		if werr != nil {
			t.Fatalf("trial %d oracle: %v", trial, werr)
		}
		if !fmath.EQ(got, want.Value) {
			t.Fatalf("trial %d: tri-criteria period %g, oracle %g (budget %g)", trial, got, want.Value, budget)
		}
		if e := mapping.Energy(&inst, &m); !fmath.LE(e, budget) {
			t.Fatalf("trial %d: energy %g exceeds budget %g", trial, e, budget)
		}
	}
}

// TestMinEnergyGivenPeriodLatencyUniModal checks the third Theorem 24
// variant against the oracle.
func TestMinEnergyGivenPeriodLatencyUniModal(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 30; trial++ {
		inst := smallFullyHom(rng, 1)
		model := models()[trial%2]
		speeds, b, _ := homSetup(&inst)
		perBounds := make([]float64, len(inst.Apps))
		latBounds := make([]float64, len(inst.Apps))
		for a := range inst.Apps {
			dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
			curve, _ := dp.MinPeriod(maxProcsPerApp(&inst))
			perBounds[a] = curve[0]*0.6 + curve[len(curve)-1]*0.4
			l, _, _ := dp.MinLatencyGivenPeriod(maxProcsPerApp(&inst), perBounds[a])
			latBounds[a] = l * (1 + rng.Float64()*0.5)
		}
		_, got, err := MinEnergyGivenPeriodLatencyUniModal(&inst, model, perBounds, latBounds)
		want, werr := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: model, PeriodBounds: perBounds, LatencyBounds: latBounds})
		if (err != nil) != (werr != nil) {
			t.Fatalf("trial %d: feasibility mismatch: alg=%v oracle=%v", trial, err, werr)
		}
		if err != nil {
			continue
		}
		if !fmath.EQ(got, want.Value) {
			t.Fatalf("trial %d: energy %g, oracle %g", trial, got, want.Value)
		}
	}
}

// TestMinLatencyCommHomMatchesOracle verifies Theorem 12 on communication
// homogeneous platforms with heterogeneous multi-modal processors.
func TestMinLatencyCommHomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 40; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 4,
			Procs: 3 + rng.Intn(2), Modes: 1 + rng.Intn(2),
			Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
		}
		inst := workload.MustInstance(rng, cfg)
		if trial%4 == 0 {
			inst.Apps[0].Weight = 2
		}
		m, got, err := MinLatencyCommHom(&inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fmath.EQ(mapping.Latency(&inst, &m), got) {
			t.Fatalf("trial %d: value/mapping mismatch", trial)
		}
		want, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		if !fmath.EQ(got, want.Value) {
			t.Fatalf("trial %d: latency %g, oracle %g", trial, got, want.Value)
		}
	}
}

func TestAllocateGreedy(t *testing.T) {
	// Two applications; app0 improves steeply with processors, app1 not.
	curves := [][]float64{
		{10, 5, 2, 1},
		{4, 4, 4, 4},
	}
	counts, val := alloc.Allocate(curves, 4)
	if counts[0] != 3 || counts[1] != 1 {
		t.Errorf("counts = %v, want [3 1]", counts)
	}
	if val != 4 {
		t.Errorf("value = %g, want 4 (app1 becomes the bottleneck)", val)
	}
	// Early stop: app1 is the bottleneck and cannot improve, so extra
	// processors are not wasted on it.
	counts, val = alloc.Allocate(curves, 8)
	if val != 4 {
		t.Errorf("value with 8 processors = %g, want 4", val)
	}
	if counts[0]+counts[1] > 8 {
		t.Errorf("allocated more processors than available: %v", counts)
	}
}

func TestSingleDPMinPeriodManual(t *testing.T) {
	// Chain of works (4, 4) with no communication, speed 1: one processor
	// gives period 8, two give 4.
	app := pipeline.Application{Stages: []pipeline.Stage{{Work: 4}, {Work: 4}}, Weight: 1}
	dp := NewSingleDP(&app, []float64{1}, 1, pipeline.Overlap)
	curve, parts := dp.MinPeriod(3)
	if !fmath.EQ(curve[0], 8) || !fmath.EQ(curve[1], 4) || !fmath.EQ(curve[2], 4) {
		t.Errorf("curve = %v, want [8 4 4]", curve)
	}
	if len(parts[1]) != 2 {
		t.Errorf("2-processor partition has %d intervals", len(parts[1]))
	}
	// With a heavy inter-stage communication, splitting hurts in the
	// no-overlap model: works (4,4), delta^1 = 100, b = 10.
	app2 := pipeline.Application{Stages: []pipeline.Stage{{Work: 4, Out: 100}, {Work: 4}}, Weight: 1}
	dp2 := NewSingleDP(&app2, []float64{1}, 10, pipeline.NoOverlap)
	curve2, _ := dp2.MinPeriod(2)
	if !fmath.EQ(curve2[0], 8) {
		t.Errorf("one-processor period = %g, want 8", curve2[0])
	}
	if !fmath.EQ(curve2[1], 8) {
		t.Errorf("two-processor period = %g, want 8 (split costs 10+4)", curve2[1])
	}
}

func TestSingleDPEnergyPrefersSlowModes(t *testing.T) {
	// Works (2, 2), speeds {1, 2}, no communication. Period bound 2:
	// cheapest is two processors at speed 1 (energy 2) rather than one at
	// speed 2 (energy 4).
	app := pipeline.Application{Stages: []pipeline.Stage{{Work: 2}, {Work: 2}}, Weight: 1}
	dp := NewSingleDP(&app, []float64{1, 2}, 1, pipeline.Overlap)
	e, part, ok := dp.MinEnergyGivenPeriod(2, 2, pipeline.DefaultEnergy)
	if !ok {
		t.Fatal("feasible problem reported infeasible")
	}
	if !fmath.EQ(e, 2) {
		t.Errorf("energy = %g, want 2", e)
	}
	if len(part) != 2 || part[0].Mode != 0 || part[1].Mode != 0 {
		t.Errorf("partition = %+v, want two slow intervals", part)
	}
	// Bound 4: a single processor at speed 1 suffices (energy 1).
	e, part, ok = dp.MinEnergyGivenPeriod(2, 4, pipeline.DefaultEnergy)
	if !ok || !fmath.EQ(e, 1) || len(part) != 1 {
		t.Errorf("energy = %g, partition %+v; want 1 with one interval", e, part)
	}
	// Bound below reach: infeasible.
	if _, _, ok := dp.MinEnergyGivenPeriod(2, 0.5, pipeline.DefaultEnergy); ok {
		t.Error("infeasible bound accepted")
	}
}

func TestWrongPlatformErrors(t *testing.T) {
	inst := pipeline.MotivatingExample() // comm-homogeneous, not fully hom
	if _, _, err := MinPeriodFullyHom(&inst, pipeline.Overlap); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("MinPeriodFullyHom on comm-hom platform: %v", err)
	}
	het := inst.Clone()
	het.Platform.Bandwidth[0][1] = 7
	het.Platform.Bandwidth[1][0] = 7
	if _, _, err := MinLatencyCommHom(&het); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("MinLatencyCommHom on het platform: %v", err)
	}
	// Too few processors.
	small := pipeline.Instance{
		Apps: []pipeline.Application{
			pipeline.NewUniformApplication("a", 2, 1),
			pipeline.NewUniformApplication("b", 2, 1),
		},
		Platform: pipeline.NewHomogeneousPlatform(1, []float64{1}, 1, 2),
		Energy:   pipeline.DefaultEnergy,
	}
	if _, _, err := MinPeriodFullyHom(&small, pipeline.Overlap); !errors.Is(err, ErrWrongPlatform) {
		t.Errorf("undersized platform: %v", err)
	}
}

func TestInfeasibleBoundsError(t *testing.T) {
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 3, 4)},
		Platform: pipeline.NewHomogeneousPlatform(2, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	_, _, err := MinLatencyGivenPeriodFullyHom(&inst, pipeline.Overlap, []float64{0.1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
	_, _, err = MinEnergyGivenPeriodFullyHom(&inst, pipeline.Overlap, []float64{0.1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("energy: expected ErrInfeasible, got %v", err)
	}
}

func TestEnergyBudgetTooSmall(t *testing.T) {
	inst := pipeline.Instance{
		Apps: []pipeline.Application{
			pipeline.NewUniformApplication("a", 2, 1),
			pipeline.NewUniformApplication("b", 2, 1),
		},
		Platform: pipeline.NewHomogeneousPlatform(4, []float64{2}, 1, 2),
		Energy:   pipeline.DefaultEnergy,
	}
	// Each processor costs 4; two applications need at least 8.
	_, _, err := MinPeriodGivenLatencyEnergyUniModal(&inst, pipeline.Overlap, []float64{100, 100}, 7)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

// TestCurveMonotonicityQuick: every per-application curve used by
// Algorithm 2 must be non-increasing in the processor count — the property
// its optimality proof depends on.
func TestCurveMonotonicityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 60; trial++ {
		cfg := workload.Config{
			Apps: 1, MinStages: 2, MaxStages: 8, Procs: 6, Modes: 1 + rng.Intn(3),
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 7,
		}
		inst := workload.MustInstance(rng, cfg)
		speeds, b, err := homSetup(&inst)
		if err != nil {
			t.Fatal(err)
		}
		model := models()[trial%2]
		dp := NewSingleDP(&inst.Apps[0], speeds, b, model)
		curve, parts := dp.MinPeriod(6)
		for q := 1; q < len(curve); q++ {
			if fmath.GT(curve[q], curve[q-1]) {
				t.Fatalf("trial %d: period curve increases at q=%d: %v", trial, q+1, curve)
			}
			if len(parts[q]) > q+1 {
				t.Fatalf("trial %d: partition for q=%d uses %d intervals", trial, q+1, len(parts[q]))
			}
		}
		// Energy curves under a generous bound are non-increasing too.
		eCurve, _ := dp.EnergyCurve(6, curve[0]*2, inst.Energy)
		for q := 1; q < len(eCurve); q++ {
			if fmath.GT(eCurve[q], eCurve[q-1]) {
				t.Fatalf("trial %d: energy curve increases at q=%d: %v", trial, q+1, eCurve)
			}
		}
	}
}

// TestLatencyNeverBelowWholeApp: splitting an application can only add
// communication, so the Theorem 15 latency at any period bound is at least
// the whole-application latency on one processor.
func TestLatencyNeverBelowWholeApp(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	for trial := 0; trial < 40; trial++ {
		inst := smallFullyHom(rng, 1)
		speeds, b, _ := homSetup(&inst)
		model := models()[trial%2]
		dp := NewSingleDP(&inst.Apps[0], speeds, b, model)
		whole, _, ok := dp.MinLatencyGivenPeriod(1, 1e18)
		if !ok {
			t.Fatal("whole-application mapping infeasible under infinite bound")
		}
		for q := 2; q <= 4; q++ {
			l, _, ok := dp.MinLatencyGivenPeriod(q, 1e18)
			if !ok {
				t.Fatal("unbounded latency DP failed")
			}
			if fmath.LT(l, whole) {
				t.Fatalf("trial %d: %d-processor latency %g below whole-app %g", trial, q, l, whole)
			}
		}
	}
}
