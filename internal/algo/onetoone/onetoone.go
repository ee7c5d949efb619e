// Package onetoone implements the paper's polynomial algorithms for
// one-to-one mappings: Theorem 1's binary search plus greedy assignment for
// period minimization on communication homogeneous platforms, and the
// trivial fully homogeneous cases for latency (Theorem 8) and bi-criteria
// period/latency (Theorem 14).
package onetoone

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// ErrWrongPlatform is returned when preconditions on the platform (class or
// processor count) do not hold.
var ErrWrongPlatform = errors.New("onetoone: platform does not satisfy the algorithm's preconditions")

// stageRef identifies one stage of one application.
type stageRef struct{ app, k int }

// allStages lists every stage of every application.
func allStages(inst *pipeline.Instance) []stageRef {
	var out []stageRef
	for a := range inst.Apps {
		for k := 0; k < inst.Apps[a].NumStages(); k++ {
			out = append(out, stageRef{a, k})
		}
	}
	return out
}

// stageCycle returns W_a times the cycle time of stage k of application a
// executed at speed s with uniform bandwidth b: Equation 3 or 4 restricted
// to a single stage.
func stageCycle(inst *pipeline.Instance, r stageRef, s, b float64, model pipeline.CommModel) float64 {
	app := &inst.Apps[r.app]
	in := comm(app.InputSize(r.k), b)
	out := comm(app.OutputSize(r.k), b)
	comp := app.Stages[r.k].Work / s
	return app.EffectiveWeight() * mapping.IntervalCost(model, in, comp, out)
}

func comm(vol, b float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / b
}

// MinPeriodCommHom implements Theorem 1: the one-to-one mapping minimizing
// the weighted global period max_a W_a*T_a on a communication homogeneous
// platform, in polynomial time. It binary-searches the candidate period set
// {W_a * cycle(stage, processor)} and tests feasibility with the greedy
// assignment procedure (Algorithm 1): keep the N fastest processors,
// scan them from slowest to fastest, and give each any free stage it can
// process within the tested period. Processors run at their fastest mode.
func MinPeriodCommHom(inst *pipeline.Instance, model pipeline.CommModel) (mapping.Mapping, float64, error) {
	if cls := inst.Platform.Classify(); cls == pipeline.FullyHeterogeneous {
		return mapping.Mapping{}, 0, fmt.Errorf("%w: want communication homogeneous, have %v", ErrWrongPlatform, cls)
	}
	stages := allStages(inst)
	n := len(stages)
	p := inst.Platform.NumProcessors()
	if p < n {
		return mapping.Mapping{}, 0, fmt.Errorf("%w: one-to-one needs p >= N (%d < %d)", ErrWrongPlatform, p, n)
	}
	b, _ := inst.Platform.HomogeneousLinks()

	// Keep the N fastest processors, slowest first.
	procIdx := make([]int, p)
	for i := range procIdx {
		procIdx[i] = i
	}
	sort.Slice(procIdx, func(i, j int) bool {
		return inst.Platform.Processors[procIdx[i]].MaxSpeed() < inst.Platform.Processors[procIdx[j]].MaxSpeed()
	})
	procs := procIdx[p-n:]

	cands := make([]float64, 0, n*n)
	for _, r := range stages {
		for _, u := range procs {
			cands = append(cands, stageCycle(inst, r, inst.Platform.Processors[u].MaxSpeed(), b, model))
		}
	}
	cands = fmath.SortedUnique(cands)

	greedy := func(limit float64) ([]int, bool) {
		asg := make([]int, n) // stage index -> processor
		taken := make([]bool, n)
		for _, u := range procs {
			s := inst.Platform.Processors[u].MaxSpeed()
			found := -1
			for i, r := range stages {
				if !taken[i] && fmath.LE(stageCycle(inst, r, s, b, model), limit) {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, false
			}
			taken[found] = true
			asg[found] = u
		}
		return asg, true
	}

	lo, hi := 0, len(cands)-1
	var bestAsg []int
	bestT := math.Inf(1)
	for lo <= hi {
		mid := (lo + hi) / 2
		if asg, ok := greedy(cands[mid]); ok {
			bestAsg, bestT = asg, cands[mid]
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestAsg == nil {
		// Cannot happen: the largest candidate is always feasible (assign
		// stages in any order; every cycle is bounded by the max).
		return mapping.Mapping{}, 0, fmt.Errorf("onetoone: internal error, no feasible candidate")
	}
	return buildMapping(inst, stages, bestAsg), bestT, nil
}

// buildMapping assembles a one-to-one mapping from a stage->processor
// assignment, every processor at its fastest mode.
func buildMapping(inst *pipeline.Instance, stages []stageRef, asg []int) mapping.Mapping {
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
	for i, r := range stages {
		u := asg[i]
		m.Apps[r.app].Intervals = append(m.Apps[r.app].Intervals, mapping.PlacedInterval{
			From: r.k, To: r.k, Proc: u, Mode: inst.Platform.Processors[u].NumModes() - 1,
		})
	}
	return m
}

// MinLatencyFullyHom implements Theorem 8: on fully homogeneous platforms
// every one-to-one mapping has the same latency (identical processors,
// identical links), so any assignment of the N stages to N processors at
// top speed is optimal.
func MinLatencyFullyHom(inst *pipeline.Instance) (mapping.Mapping, float64, error) {
	m, err := anyFullyHom(inst)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, mapping.Latency(inst, &m), nil
}

func anyFullyHom(inst *pipeline.Instance) (mapping.Mapping, error) {
	if cls := inst.Platform.Classify(); cls != pipeline.FullyHomogeneous {
		return mapping.Mapping{}, fmt.Errorf("%w: want fully homogeneous, have %v", ErrWrongPlatform, cls)
	}
	stages := allStages(inst)
	if p := inst.Platform.NumProcessors(); p < len(stages) {
		return mapping.Mapping{}, fmt.Errorf("%w: one-to-one needs p >= N (%d < %d)", ErrWrongPlatform, p, len(stages))
	}
	asg := make([]int, len(stages))
	for i := range asg {
		asg[i] = i
	}
	return buildMapping(inst, stages, asg), nil
}
