package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// heuristicPinDigest is the SHA-256 of pinnedHeuristicJobs' answers. It was
// generated by the allocating annealer that cloned the candidate every
// iteration; any change to the draw sequence, the moves or the objective
// arithmetic changes it.
const heuristicPinDigest = "a3bfa1a7d7f8f1bf64c4f48687115533c93aa543957ddd3be91e0fab398fa007"

// pinnedHeuristicJobs returns a fixed seeded set of NP-hard-cell jobs on
// fully heterogeneous platforms, covering both rules, both communication
// models and all three objectives, with and without bounds. Every job is
// forced past the exact search by ExactLimit 1. Bounds are loosened from
// the metrics of an unbounded heuristic period solve, so they are feasible.
func pinnedHeuristicJobs(t testing.TB) ([]pipeline.Instance, [][]Request) {
	rng := rand.New(rand.NewSource(1401))
	energies := []pipeline.EnergyModel{pipeline.DefaultEnergy, {Static: 0.5, Alpha: 3}, {Static: 2, Alpha: 2.5}}
	var insts []pipeline.Instance
	var jobs [][]Request
	for i := 0; i < 6; i++ {
		cfg := workload.Config{
			Apps: 1 + i%2, MinStages: 2, MaxStages: 5,
			Procs: 10, Modes: 3,
			Class: pipeline.FullyHeterogeneous, MaxWork: 12, MaxData: 4, MaxSpeed: 8, MaxBandwidth: 4,
			Energy: energies[i%len(energies)],
		}
		inst := workload.MustInstance(rng, cfg)
		var reqs []Request
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
				base := Request{Rule: rule, Model: model, ExactLimit: 1, Seed: int64(i)}
				ref := base
				ref.Objective = Period
				res, err := Solve(&inst, ref)
				if err != nil {
					t.Fatalf("instance %d %v/%v: reference solve: %v", i, rule, model, err)
				}
				per := scaled(res.Metrics.AppPeriods, 3)
				lat := scaled(res.Metrics.AppLatencies, 3)
				budget := res.Metrics.Energy * 3
				for _, r := range []Request{
					{Objective: Period},
					{Objective: Period, LatencyBounds: lat},
					{Objective: Period, LatencyBounds: lat, EnergyBudget: budget},
					{Objective: Latency},
					{Objective: Latency, PeriodBounds: per},
					{Objective: Latency, PeriodBounds: per, EnergyBudget: budget},
					{Objective: Energy, PeriodBounds: per},
					{Objective: Energy, PeriodBounds: per, LatencyBounds: lat},
				} {
					r.Rule, r.Model, r.ExactLimit, r.Seed = base.Rule, base.Model, base.ExactLimit, base.Seed
					reqs = append(reqs, r)
				}
			}
		}
		insts = append(insts, inst)
		jobs = append(jobs, reqs)
	}
	return insts, jobs
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestHeuristicAnswersPinned hashes the annealer's answers on a fixed job
// set and compares them with a digest recorded from an earlier build, so a
// change that perturbs the heuristic's results (not only its speed) fails
// here. Transcendental functions and FMA fusion differ between
// architectures, so the digest is only meaningful on amd64.
func TestHeuristicAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s rounds math.Exp/Pow differently", runtime.GOARCH)
	}
	insts, jobs := pinnedHeuristicJobs(t)
	h := sha256.New()
	n := 0
	for i := range insts {
		for j, req := range jobs[i] {
			res, err := Solve(&insts[i], req)
			if err != nil {
				t.Fatalf("instance %d job %d (%v %v %v): %v", i, j, req.Rule, req.Model, req.Objective, err)
			}
			hashHeuristicAnswer(t, h, &res)
			n++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != heuristicPinDigest {
		t.Errorf("digest of %d heuristic answers = %s, want %s", n, got, heuristicPinDigest)
	}
}

// hashHeuristicAnswer writes res into h, failing unless the heuristic
// produced it.
func hashHeuristicAnswer(t *testing.T, h hash.Hash, res *Result) {
	t.Helper()
	if res.Method != MethodHeuristic {
		t.Fatalf("method %q, want the heuristic", res.Method)
	}
	var buf [8]byte
	writeBits := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	h.Write([]byte(res.Method))
	writeBits(res.Value)
	writeBits(res.LowerBound)
	if res.Degraded {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	js, err := json.Marshal(&res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
}

// heuristicMultiAppPinDigest is the SHA-256 of pinnedMultiAppJobs'
// answers, recorded from the annealer that re-scored every application
// after every move.
const heuristicMultiAppPinDigest = "df0f54d75441c6d1019c754cfa8a3467beeab04937a2b98413c1416a76234ad4"

// pinnedMultiAppJobs returns a fixed seeded set of forced-heuristic jobs
// on 3-application fully heterogeneous instances: both rules, both
// communication models, and every request shape, energy budgets included.
// Bounds and budgets are a random slack times the metrics of an unbounded
// heuristic period solve, so some constraints bind and a few jobs are
// infeasible.
func pinnedMultiAppJobs(t testing.TB) ([]pipeline.Instance, [][]Request) {
	rng := rand.New(rand.NewSource(1601))
	energies := []pipeline.EnergyModel{pipeline.DefaultEnergy, {Static: 0.5, Alpha: 3}, {Static: 2, Alpha: 2.5}}
	var insts []pipeline.Instance
	var jobs [][]Request
	for i := 0; i < 4; i++ {
		cfg := workload.Config{
			Apps: 3, MinStages: 2, MaxStages: 4,
			Procs: 14, Modes: 3,
			Class: pipeline.FullyHeterogeneous, MaxWork: 12, MaxData: 4, MaxSpeed: 8, MaxBandwidth: 4,
			Energy: energies[i%len(energies)],
		}
		inst := workload.MustInstance(rng, cfg)
		var reqs []Request
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
				base := Request{Rule: rule, Model: model, ExactLimit: 1, Seed: int64(i)}
				ref := base
				ref.Objective = Period
				res, err := Solve(&inst, ref)
				if err != nil {
					t.Fatalf("instance %d %v/%v: reference solve: %v", i, rule, model, err)
				}
				per := scaled(res.Metrics.AppPeriods, 1.2+1.5*rng.Float64())
				lat := scaled(res.Metrics.AppLatencies, 1.2+1.5*rng.Float64())
				budget := res.Metrics.Energy * (1.1 + 1.4*rng.Float64())
				for _, r := range []Request{
					{Objective: Period},
					{Objective: Period, LatencyBounds: lat},
					{Objective: Period, EnergyBudget: budget},
					{Objective: Period, LatencyBounds: lat, EnergyBudget: budget},
					{Objective: Latency},
					{Objective: Latency, PeriodBounds: per},
					{Objective: Latency, EnergyBudget: budget},
					{Objective: Latency, PeriodBounds: per, EnergyBudget: budget},
					{Objective: Energy, PeriodBounds: per},
					{Objective: Energy, PeriodBounds: per, LatencyBounds: lat},
					{Objective: Energy, PeriodBounds: per, EnergyBudget: budget},
					{Objective: Energy, PeriodBounds: per, LatencyBounds: lat, EnergyBudget: budget},
				} {
					r.Rule, r.Model, r.ExactLimit, r.Seed = base.Rule, base.Model, base.ExactLimit, base.Seed
					reqs = append(reqs, r)
				}
			}
		}
		insts = append(insts, inst)
		jobs = append(jobs, reqs)
	}
	return insts, jobs
}

// TestHeuristicAnswersPinnedMultiApp is TestHeuristicAnswersPinned on
// 3-application instances, where a move touches one application of
// several and energy budgets constrain the search. Jobs the heuristic
// finds no mapping for contribute a marker to the digest (recorded when
// they answered ErrInfeasible; they answer ErrUnresolved now, since the
// annealer proves nothing). amd64 only, like the 1-2 application
// pin.
func TestHeuristicAnswersPinnedMultiApp(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s rounds math.Exp/Pow differently", runtime.GOARCH)
	}
	insts, jobs := pinnedMultiAppJobs(t)
	h := sha256.New()
	n, unresolved := 0, 0
	for i := range insts {
		for j, req := range jobs[i] {
			res, err := Solve(&insts[i], req)
			n++
			if errors.Is(err, ErrUnresolved) {
				unresolved++
				h.Write([]byte("infeasible"))
				continue
			}
			if err != nil {
				t.Fatalf("instance %d job %d (%v %v %v): %v", i, j, req.Rule, req.Model, req.Objective, err)
			}
			hashHeuristicAnswer(t, h, &res)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != heuristicMultiAppPinDigest {
		t.Errorf("digest of %d heuristic answers (%d unresolved) = %s, want %s", n, unresolved, got, heuristicMultiAppPinDigest)
	}
}

// BenchmarkHeuristicSolve times Solve over the pinned forced-heuristic
// jobs: one op answers every job of the set once.
func BenchmarkHeuristicSolve(b *testing.B) {
	for _, set := range []struct {
		name string
		jobs func(testing.TB) ([]pipeline.Instance, [][]Request)
	}{
		{"apps=1-2", pinnedHeuristicJobs},
		{"apps=3", pinnedMultiAppJobs},
	} {
		insts, jobs := set.jobs(b)
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := range insts {
					for _, req := range jobs[k] {
						if _, err := Solve(&insts[k], req); err != nil && !errors.Is(err, ErrUnresolved) {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
