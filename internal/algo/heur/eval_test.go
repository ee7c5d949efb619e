package heur

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// referenceObjective is the penalized objective the searches scored every
// mapping with before the evaluator: every bound and the objective
// recomputed from the whole mapping.
func referenceObjective(inst *pipeline.Instance, g Goal) func(m *mapping.Mapping) float64 {
	power := mapping.NewPowerTable(inst)
	return func(m *mapping.Mapping) float64 {
		for a := range m.Apps {
			if g.PeriodBounds != nil && !fmath.LE(mapping.AppPeriod(inst, m, a, g.Model), g.PeriodBounds[a]) {
				return math.Inf(1)
			}
			if g.LatencyBounds != nil && !fmath.LE(mapping.AppLatency(inst, m, a), g.LatencyBounds[a]) {
				return math.Inf(1)
			}
		}
		if g.EnergyBudget > 0 && !fmath.LE(power.Energy(m), g.EnergyBudget) {
			return math.Inf(1)
		}
		switch g.Objective {
		case Period:
			return mapping.Period(inst, m, g.Model)
		case Latency:
			return mapping.Latency(inst, m)
		default:
			return power.Energy(m)
		}
	}
}

// evalInstance draws a fully heterogeneous instance of 1-3 applications
// with fractional works and data sizes (some zero) and random weights
// (some unset), with enough processors for the one-to-one rule.
func evalInstance(rng *rand.Rand) pipeline.Instance {
	energies := []pipeline.EnergyModel{pipeline.DefaultEnergy, {Static: 0.5, Alpha: 3}, {Static: 2, Alpha: 2.5}}
	apps := 1 + rng.Intn(3)
	cfg := workload.Config{
		Apps: apps, MinStages: 1, MaxStages: 5, Procs: 5*apps + 2, Modes: 1 + rng.Intn(3),
		Class: pipeline.FullyHeterogeneous, MaxWork: 12, MaxData: 4, MaxSpeed: 8, MaxBandwidth: 4,
		Energy: energies[rng.Intn(len(energies))],
	}
	inst := workload.MustInstance(rng, cfg)
	for a := range inst.Apps {
		app := &inst.Apps[a]
		app.Weight = []float64{0, 1, 0.5 + 2*rng.Float64()}[rng.Intn(3)]
		app.In *= rng.Float64()
		for k := range app.Stages {
			app.Stages[k].Work *= 0.1 + rng.Float64()
			app.Stages[k].Out *= rng.Float64()
		}
	}
	return inst
}

// goalShapes returns every goal shape of the model: each objective with
// and without period bounds, latency bounds and an energy budget. Bounds
// are a random slack around m's values, so some mappings break them.
func goalShapes(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, model pipeline.CommModel) []Goal {
	mt := mapping.Evaluate(inst, m, model)
	per := make([]float64, len(inst.Apps))
	lat := make([]float64, len(inst.Apps))
	for a := range per {
		per[a] = mt.AppPeriods[a] * (0.7 + rng.Float64())
		lat[a] = mt.AppLatencies[a] * (0.7 + rng.Float64())
	}
	budget := mt.Energy * (0.7 + rng.Float64())
	var goals []Goal
	for _, obj := range []Criterion{Period, Latency, Energy} {
		for shape := 0; shape < 8; shape++ {
			g := Goal{Objective: obj, Model: model}
			if shape&1 != 0 {
				g.PeriodBounds = per
			}
			if shape&2 != 0 {
				g.LatencyBounds = lat
			}
			if shape&4 != 0 {
				g.EnergyBudget = budget
			}
			goals = append(goals, g)
		}
	}
	return goals
}

// checkScores fails unless s holds m's T_a, L_a and energy prefix sums bit
// for bit as mapping.Evaluate and PowerTable.Energy compute them, and
// every goal scores m exactly as its reference objective does.
func checkScores(t *testing.T, where string, inst *pipeline.Instance, model pipeline.CommModel, s *scores, m *mapping.Mapping, goals []Goal, evs []*evaluator, refs []func(*mapping.Mapping) float64) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	mt := mapping.Evaluate(inst, m, model)
	pt := mapping.NewPowerTable(inst)
	for a := range m.Apps {
		if !same(s.period[a], mt.AppPeriods[a]) || !same(s.latency[a], mt.AppLatencies[a]) {
			t.Fatalf("%s: app %d cached (T, L) = (%v, %v), Evaluate says (%v, %v) for %v",
				where, a, s.period[a], s.latency[a], mt.AppPeriods[a], mt.AppLatencies[a], m.String())
		}
	}
	for a := 0; a <= len(m.Apps); a++ {
		if want := pt.Energy(&mapping.Mapping{Apps: m.Apps[:a]}); !same(s.energy[a], want) {
			t.Fatalf("%s: energy prefix %d = %v, PowerTable.Energy says %v", where, a, s.energy[a], want)
		}
	}
	for i := range goals {
		if got, want := evs[i].score(s), refs[i](m); !same(got, want) {
			t.Fatalf("%s: goal %+v scores %v, reference objective %v", where, goals[i], got, want)
		}
	}
}

// TestEvaluatorMatchesReference drives the annealing workspace through
// seeded random move sequences, accepting and rejecting at random. After
// every step the candidate's and the incumbent's cached scores must equal
// a from-scratch evaluation bit for bit, and every goal shape must score
// them as the reference objective does. The greedy passes' returned
// scores are checked the same way.
func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	for trial := 0; trial < 60; trial++ {
		inst := evalInstance(rng)
		for _, rule := range []mapping.Rule{mapping.OneToOne, mapping.Interval} {
			for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
				start := randomMapping(t, rng, &inst, rule)
				goals := goalShapes(rng, &inst, &start, model)
				evs := make([]*evaluator, len(goals))
				refs := make([]func(*mapping.Mapping) float64, len(goals))
				for i, g := range goals {
					evs[i] = newEvaluator(&inst, g)
					refs[i] = referenceObjective(&inst, g)
				}
				k := rng.Intn(len(evs))
				ws := newWorkspace(evs[k], &start)
				checkScores(t, "start", &inst, model, &ws.curS, &ws.cur, goals, evs, refs)
				for step := 0; step < 150; step++ {
					v, ok := ws.propose(rng, rule)
					if !ok {
						continue
					}
					if want := refs[k](&ws.cand); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d: propose scored %v, reference %v", trial, step, v, want)
					}
					checkScores(t, "candidate", &inst, model, &ws.candS, &ws.cand, goals, evs, refs)
					ws.settle(rng.Intn(2) == 0)
					checkScores(t, "incumbent", &inst, model, &ws.curS, &ws.cur, goals, evs, refs)
					checkScores(t, "settled candidate", &inst, model, &ws.candS, &ws.cand, goals, evs, refs)
				}
				for i, g := range goals {
					m := ws.cur.Clone()
					speedUpIfHelpful(evs[i], &m)
					checkScores(t, "after speed-up", &inst, model, &evs[i].base, &m, goals, evs, refs)
					if got, want := speedDown(evs[i], &m), refs[i](&m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d goal %+v: speedDown returned %v, reference %v", trial, g, got, want)
					}
				}
			}
		}
	}
}
