package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// polynomialPinDigest is the SHA-256 of pinnedPolynomialJobs' answers. It
// was generated by the build that rebuilt each single-application DP once
// per processor count; the one-table curves must reproduce it exactly.
const polynomialPinDigest = "51ef997c5558c30f80f44ac9a1c1a983ae332f0d4147fcd2f9d17727ecc5e591"

// pinnedPolynomialJobs returns a fixed seeded set of polynomial-cell jobs
// at serving sizes: fully homogeneous multi-modal interval instances
// (7-21 stages per application, 3 modes) asked for period under latency
// bounds, latency under period bounds and energy under period bounds;
// uni-modal fully homogeneous interval instances asked the three Theorem
// 24 questions; and communication homogeneous one-to-one instances asked
// for energy under period bounds (Theorem 19). Every query runs under both
// communication models. Bounds are a random slack times each application's
// whole-chain cost on the slowest processor, so some are infeasible.
func pinnedPolynomialJobs() ([]pipeline.Instance, [][]Request) {
	rng := rand.New(rand.NewSource(1501))
	energies := []pipeline.EnergyModel{pipeline.DefaultEnergy, {Static: 0.5, Alpha: 3}, {Static: 2, Alpha: 2.5}}
	var insts []pipeline.Instance
	var jobs [][]Request
	add := func(cfg workload.Config, rule mapping.Rule, reqs func(inst *pipeline.Instance, bounds func() []float64) []Request) {
		inst := workload.MustInstance(rng, cfg)
		bounds := func() []float64 {
			slack := 0.08 + 1.2*rng.Float64()
			b := make([]float64, len(inst.Apps))
			for a := range b {
				b[a] = slack * slowChainCost(&inst, a)
			}
			return b
		}
		var all []Request
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			for _, r := range reqs(&inst, bounds) {
				r.Rule, r.Model = rule, model
				all = append(all, r)
			}
		}
		insts = append(insts, inst)
		jobs = append(jobs, all)
	}
	for i := 0; i < 12; i++ {
		apps := 1 + i%3
		per := 7 + rng.Intn(15)
		cfg := workload.Config{
			Apps: apps, MinStages: per, MaxStages: per, Procs: apps + 3 + rng.Intn(16), Modes: 3,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			Energy: energies[i%len(energies)],
		}
		add(cfg, mapping.Interval, func(_ *pipeline.Instance, bounds func() []float64) []Request {
			var reqs []Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs,
					Request{Objective: Period, LatencyBounds: bounds()},
					Request{Objective: Latency, PeriodBounds: bounds()},
					Request{Objective: Energy, PeriodBounds: bounds()})
			}
			return reqs
		})
	}
	for i := 0; i < 6; i++ {
		apps := 1 + i%3
		per := 7 + rng.Intn(15)
		cfg := workload.Config{
			Apps: apps, MinStages: per, MaxStages: per, Procs: apps + 3 + rng.Intn(16), Modes: 1,
			Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			Energy: energies[i%len(energies)],
		}
		add(cfg, mapping.Interval, func(inst *pipeline.Instance, bounds func() []float64) []Request {
			perProc := inst.Energy.Power(inst.Platform.Processors[0].Speeds[0])
			budget := func() float64 {
				return perProc * float64(apps+rng.Intn(inst.Platform.NumProcessors()-apps+1))
			}
			var reqs []Request
			for k := 0; k < 3; k++ {
				reqs = append(reqs,
					Request{Objective: Period, LatencyBounds: bounds(), EnergyBudget: budget()},
					Request{Objective: Latency, PeriodBounds: bounds(), EnergyBudget: budget()},
					Request{Objective: Energy, PeriodBounds: bounds(), LatencyBounds: bounds()})
			}
			return reqs
		})
	}
	for i := 0; i < 6; i++ {
		apps := 1 + i%3
		per := 7 + rng.Intn(15)
		cfg := workload.Config{
			Apps: apps, MinStages: per, MaxStages: per, Procs: apps*per + rng.Intn(4), Modes: 3,
			Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8,
			Energy: energies[i%len(energies)],
		}
		add(cfg, mapping.OneToOne, func(_ *pipeline.Instance, bounds func() []float64) []Request {
			var reqs []Request
			for k := 0; k < 6; k++ {
				reqs = append(reqs, Request{Objective: Energy, PeriodBounds: bounds()})
			}
			return reqs
		})
	}
	return insts, jobs
}

// slowChainCost is application a's cycle time as one interval on the
// slowest processor at its slowest mode, counting data sizes at unit
// bandwidth: a loose upper bound on what any mapping needs.
func slowChainCost(inst *pipeline.Instance, a int) float64 {
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

// TestPolynomialAnswersPinned hashes the polynomial algorithms' answers on
// a fixed job set and compares them with a digest recorded from an earlier
// build, so a change that perturbs which optimum a DP or the matching
// returns (not only its speed) fails here. Infeasible jobs contribute a
// marker. math.Pow rounds differently between architectures, so the
// digest is only meaningful on amd64.
func TestPolynomialAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s rounds math.Pow differently", runtime.GOARCH)
	}
	polynomial := map[Method]bool{
		MethodGreedyBinarySearch: true, MethodDynProgAlloc: true, MethodEnergyDP: true,
		MethodMatching: true, MethodTrivial: true, MethodUniModalBudget: true,
	}
	insts, jobs := pinnedPolynomialJobs()
	h := sha256.New()
	var buf [8]byte
	n, infeasible := 0, 0
	methods := map[Method]int{}
	for i := range insts {
		for j, req := range jobs[i] {
			n++
			res, err := Solve(&insts[i], req)
			if errors.Is(err, ErrInfeasible) {
				infeasible++
				h.Write([]byte("infeasible"))
				continue
			}
			if err != nil {
				t.Fatalf("instance %d job %d (%v %v %v): %v", i, j, req.Rule, req.Model, req.Objective, err)
			}
			if !polynomial[res.Method] {
				t.Fatalf("instance %d job %d: method %q, want a polynomial algorithm", i, j, res.Method)
			}
			methods[res.Method]++
			h.Write([]byte(res.Method))
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.Value))
			h.Write(buf[:])
			js, err := json.Marshal(&res.Mapping)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(js)
		}
	}
	t.Logf("%d jobs: %d infeasible, answered by %v", n, infeasible, methods)
	if infeasible*4 > n {
		t.Errorf("%d of %d pinned jobs are infeasible; the set should mostly exercise answers", infeasible, n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != polynomialPinDigest {
		t.Errorf("digest of %d polynomial answers (%d infeasible) = %s, want %s", n, infeasible, got, polynomialPinDigest)
	}
}
