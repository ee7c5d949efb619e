package pareto

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func TestFilter(t *testing.T) {
	pts := []Point{
		{Period: 1, Energy: 10},
		{Period: 2, Energy: 5},
		{Period: 2, Energy: 7}, // dominated
		{Period: 3, Energy: 5}, // dominated (same energy, worse period)
		{Period: 4, Energy: 1},
		{Period: 0.5, Energy: 20},
	}
	front := Filter(pts)
	want := []Point{{Period: 0.5, Energy: 20}, {Period: 1, Energy: 10}, {Period: 2, Energy: 5}, {Period: 4, Energy: 1}}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i].Period != want[i].Period || front[i].Energy != want[i].Energy {
			t.Fatalf("front[%d] = %+v, want %+v", i, front[i], want[i])
		}
	}
	if out := Filter(nil); len(out) != 0 {
		t.Error("Filter(nil) not empty")
	}
}

// TestPeriodEnergyFullyHomMatchesExhaustive: on small fully homogeneous
// instances, the polynomial frontier must equal the projection of the
// exhaustive Pareto front onto (period, energy).
func TestPeriodEnergyFullyHomMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		inst := workload.MustInstance(rng, workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 3, Modes: 2, Class: pipeline.FullyHomogeneous,
			MaxWork: 6, MaxData: 3, MaxSpeed: 5,
		})
		model := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}[trial%2]
		front, err := PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, model, batch.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		full, err := exact.ParetoFront(context.Background(), &inst, mapping.Interval, model)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		// Project the exhaustive 3-criteria front onto (period, energy).
		var proj []Point
		for _, pt := range full {
			proj = append(proj, Point{Period: pt.Period, Energy: pt.Energy})
		}
		wantFront := Filter(proj)
		if len(front) != len(wantFront) {
			t.Fatalf("trial %d (%v): frontier sizes differ: dp=%d oracle=%d\ndp=%v\noracle=%v",
				trial, model, len(front), len(wantFront), points(front), points(wantFront))
		}
		for i := range front {
			if !fmath.EQ(front[i].Period, wantFront[i].Period) || !fmath.EQ(front[i].Energy, wantFront[i].Energy) {
				t.Fatalf("trial %d: point %d: dp (%g,%g) oracle (%g,%g)", trial, i,
					front[i].Period, front[i].Energy, wantFront[i].Period, wantFront[i].Energy)
			}
		}
		// Witness mappings achieve their points.
		for i, pt := range front {
			if !fmath.LE(mapping.Period(&inst, &pt.Mapping, model), pt.Period) {
				t.Errorf("trial %d: witness %d misses its period", trial, i)
			}
			if !fmath.EQ(mapping.Energy(&inst, &pt.Mapping), pt.Energy) {
				t.Errorf("trial %d: witness %d misses its energy", trial, i)
			}
		}
	}
}

func points(ps []Point) [][2]float64 {
	out := make([][2]float64, len(ps))
	for i, p := range ps {
		out[i] = [2]float64{p.Period, p.Energy}
	}
	return out
}

// TestPeriodEnergyOneToOneMatchesExhaustive does the same for the Theorem
// 19 matching frontier on communication homogeneous platforms.
func TestPeriodEnergyOneToOneMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		cfg := workload.Config{
			Apps: 1, MinStages: 2, MaxStages: 3, Procs: 1, Modes: 2,
			Class: pipeline.CommHomogeneous, MaxWork: 6, MaxData: 3, MaxSpeed: 6,
		}
		inst := workload.MustInstance(rng, cfg)
		cfg.Procs = inst.TotalStages() + 1
		inst.Platform = workload.Platform(rng, cfg)
		front, err := PeriodEnergyCtx(context.Background(), &inst, mapping.OneToOne, pipeline.Overlap, batch.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		full, err := exact.ParetoFront(context.Background(), &inst, mapping.OneToOne, pipeline.Overlap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var proj []Point
		for _, pt := range full {
			proj = append(proj, Point{Period: pt.Period, Energy: pt.Energy})
		}
		wantFront := Filter(proj)
		if len(front) != len(wantFront) {
			t.Fatalf("trial %d: frontier sizes differ: %v vs %v", trial, points(front), points(wantFront))
		}
		for i := range front {
			if !fmath.EQ(front[i].Period, wantFront[i].Period) || !fmath.EQ(front[i].Energy, wantFront[i].Energy) {
				t.Fatalf("trial %d: point %d mismatch", trial, i)
			}
		}
	}
}

// TestOneToOneImpossiblePlatformYieldsEmptyFrontier pins the sequential
// contract kept by the batch sweep: when the rule cannot map the instance
// at all (one-to-one with fewer processors than stages), the frontier is
// empty and no error is raised.
func TestOneToOneImpossiblePlatformYieldsEmptyFrontier(t *testing.T) {
	inst := pipeline.MotivatingExample() // 7 stages, 3 processors
	front, err := PeriodEnergyCtx(context.Background(), &inst, mapping.OneToOne, pipeline.Overlap, batch.Options{})
	if err != nil {
		t.Fatalf("impossible platform returned error %v, want empty frontier", err)
	}
	if len(front) != 0 {
		t.Fatalf("impossible platform returned %d points", len(front))
	}
}

// TestSweepPropagatesNonInfeasibleErrors is the silent-error regression: a
// broken query (here, an instance whose platform is sized for a different
// application count, which fails validation inside core.Solve) must surface
// as an error, not as a silently empty frontier. Only genuine
// infeasibility may be skipped.
func TestSweepPropagatesNonInfeasibleErrors(t *testing.T) {
	bad := pipeline.Instance{
		Apps: []pipeline.Application{pipeline.NewUniformApplication("a", 2, 1)},
		// Virtual links sized for two applications, instance has one.
		Platform: pipeline.NewHomogeneousPlatform(3, []float64{1, 2}, 1, 2),
		Energy:   pipeline.DefaultEnergy,
	}
	front, err := PeriodEnergyCtx(context.Background(), &bad, mapping.Interval, pipeline.Overlap, batch.Options{})
	if err == nil {
		t.Fatalf("invalid instance produced frontier %v, want error", points(front))
	}
	if errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("validation failure misreported as infeasibility: %v", err)
	}
}

// TestSweepCancellation: a cancelled context aborts either candidate
// sweep, and the exhaustive fallback, with the context's error instead of
// returning a truncated frontier.
func TestSweepCancellation(t *testing.T) {
	hom := workload.MustInstance(rand.New(rand.NewSource(74)), workload.Config{
		Apps: 2, MinStages: 2, MaxStages: 3, Procs: 6, Modes: 2,
		Class: pipeline.FullyHomogeneous, MaxWork: 6, MaxData: 3, MaxSpeed: 5,
	})
	fig1 := pipeline.MotivatingExample() // communication homogeneous: interval rule is exhaustive
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		inst *pipeline.Instance
		rule mapping.Rule
	}{
		{"interval sweep", &hom, mapping.Interval},
		{"one-to-one sweep", &hom, mapping.OneToOne},
		{"exhaustive", &fig1, mapping.Interval},
	} {
		if _, err := PeriodEnergyCtx(ctx, c.inst, c.rule, pipeline.Overlap, batch.Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled frontier returned %v, want context.Canceled", c.name, err)
		}
	}
}

// TestExhaustiveValidatesInstance: outside the polynomial classes the
// instance is validated before it is enumerated, so an inconsistent one is
// an error, never a panic. Figure 1 with a second mode on processor 0 is
// fully heterogeneous; dropping one application's input bandwidths makes
// the bandwidth matrices disagree.
func TestExhaustiveValidatesInstance(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Platform.Processors[0].Speeds = []float64{1, 2}
	inst.Platform.InBandwidth = inst.Platform.InBandwidth[:1]
	want := inst.Validate()
	if want == nil {
		t.Fatal("the broken instance validates")
	}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("PeriodEnergyCtx panicked: %v", r)
			}
		}()
		_, err = PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, pipeline.Overlap, batch.Options{})
	}()
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("PeriodEnergyCtx error %v, want the validation error %v", err, want)
	}
}

// TestExhaustiveRefusesOversizedSpace: an instance with more interval
// mappings than the enumeration limit is refused with
// exact.ErrSearchSpace before anything is enumerated.
func TestExhaustiveRefusesOversizedSpace(t *testing.T) {
	inst := workload.MustInstance(rand.New(rand.NewSource(1)), workload.Config{
		Apps: 1, MinStages: 7, MaxStages: 7, Procs: 7, Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 9, MaxData: 4, MaxSpeed: 8,
	})
	n, err := exact.CountMappings(&inst, exact.Options{Rule: mapping.Interval, Limit: math.MaxInt64})
	if err != nil || n <= 20_000_000 {
		t.Fatalf("instance has %d mappings (%v), want more than the default limit", n, err)
	}
	start := time.Now()
	if _, err := PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, pipeline.Overlap, batch.Options{}); !errors.Is(err, exact.ErrSearchSpace) {
		t.Fatalf("oversized frontier returned %v, want exact.ErrSearchSpace", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusal took %v: the space was enumerated", d)
	}
}

// TestPeriodEnergyCtxSharedCache: a server-shaped caller hands the same
// cache to two sweeps; the second must be answered from memo hits.
func TestPeriodEnergyCtxSharedCache(t *testing.T) {
	inst := workload.MustInstance(rand.New(rand.NewSource(75)), workload.Config{
		Apps: 1, MinStages: 2, MaxStages: 2, Procs: 3, Modes: 2,
		Class: pipeline.FullyHomogeneous, MaxWork: 5, MaxData: 2, MaxSpeed: 4,
	})
	cache := batch.NewCacheCap(1024)
	first, err := PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, pipeline.Overlap, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	second, err := PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, pipeline.Overlap, batch.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != misses {
		t.Errorf("second sweep recomputed %d candidates despite the shared cache", got-misses)
	}
	if len(first) != len(second) {
		t.Fatalf("cached sweep changed the frontier: %d vs %d points", len(first), len(second))
	}
	for i := range first {
		if !fmath.EQ(first[i].Period, second[i].Period) || !fmath.EQ(first[i].Energy, second[i].Energy) {
			t.Errorf("point %d differs across cached sweeps", i)
		}
	}
}

// TestEmptyFrontierQueries pins the degenerate-frontier contract relied on
// by the CLI and server encoders: both queries answer +Inf on an empty (or
// nil) frontier, and the JSON layer must render that as null (stdlib
// json.Marshal errors on non-finite floats; see internal/jobspec).
func TestEmptyFrontierQueries(t *testing.T) {
	for _, front := range [][]Point{nil, {}} {
		if got := MinEnergyUnderPeriod(front, 2); !math.IsInf(got, 1) {
			t.Errorf("MinEnergyUnderPeriod(empty) = %g, want +Inf", got)
		}
		if got := MinPeriodUnderEnergy(front, 100); !math.IsInf(got, 1) {
			t.Errorf("MinPeriodUnderEnergy(empty) = %g, want +Inf", got)
		}
	}
}

func TestLaptopAndServerQueries(t *testing.T) {
	front := []Point{{Period: 1, Energy: 100}, {Period: 2, Energy: 40}, {Period: 5, Energy: 10}}
	if got := MinEnergyUnderPeriod(front, 2); got != 40 {
		t.Errorf("server(2) = %g, want 40", got)
	}
	if got := MinEnergyUnderPeriod(front, 0.5); !math.IsInf(got, 1) {
		t.Errorf("server(0.5) = %g, want +Inf", got)
	}
	if got := MinPeriodUnderEnergy(front, 45); got != 2 {
		t.Errorf("laptop(45) = %g, want 2", got)
	}
	if got := MinPeriodUnderEnergy(front, 5); !math.IsInf(got, 1) {
		t.Errorf("laptop(5) = %g, want +Inf", got)
	}
}

// TestFrontierIsMonotone: period up, energy down along any frontier.
func TestFrontierIsMonotone(t *testing.T) {
	inst := workload.MustInstance(rand.New(rand.NewSource(73)), workload.Config{
		Apps: 2, MinStages: 2, MaxStages: 4, Procs: 6, Modes: 3,
		Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 4, MaxSpeed: 8,
	})
	front, err := PeriodEnergyCtx(context.Background(), &inst, mapping.Interval, pipeline.Overlap, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Period <= front[i-1].Period || front[i].Energy >= front[i-1].Energy {
			t.Errorf("frontier not monotone at %d: %v", i, points(front))
		}
	}
}
