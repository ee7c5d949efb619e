// Package heur provides practical heuristics for the problem variants the
// paper proves NP-hard: period or latency minimization on (fully)
// heterogeneous platforms, and the tri-criteria problem with multi-modal
// processors. The paper's conclusion announces polynomial-time heuristics
// for the tri-criteria problem as future work; this package implements
// them: greedy constructive mappings, a mode "speed-down" pass, and a
// simulated-annealing local search over the interval-mapping neighbourhood.
// A caller that already holds a mapping (the dispatcher passes the
// incumbent of a branch-and-bound search that ran out of budget) hands it
// over as Options.Start, and the first restart anneals from it instead of
// the greedy construction.
//
// Minimize is the one entry point. It takes a pipeline.Goal, the problem
// statement the dispatcher and the exact search share: one criterion,
// penalized to +Inf outside optional per-application period and latency
// bounds and an energy budget. One evaluator scores the mappings a search
// visits. It caches each application's T_a and L_a and the running
// PowerTable energy sum at each application's start; a move reports the
// one or two applications it changed, and only those are recomputed, in
// one pass over their intervals that feeds both the bound checks and the
// objective. The scores are bit-identical to mapping.Evaluate and
// PowerTable.Energy: the weighted maximum is exact in any order, and the
// energy sum resumes at the first changed application in the original
// addition order.
//
// All heuristics are deterministic given the caller's *rand.Rand seed, and
// the test suite measures their optimality gap against the exact solvers.
package heur

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// ErrNoMapping is returned when not even an initial feasible mapping could
// be constructed (for example, more applications than processors).
var ErrNoMapping = errors.New("heur: unable to construct an initial mapping")

// Options tunes the local search.
type Options struct {
	// Iters is the number of annealing steps per restart (default 4000).
	Iters int
	// Restarts is the number of independent searches (default 3).
	Restarts int
	// Start, when it holds a mapping, replaces restart 0's greedy
	// construction: that restart anneals from a copy of it, which must
	// be valid under the search's rule. Later restarts are the usual
	// randomized rounds. The greedy round draws nothing from the rng, so
	// the annealer's draws start at the same point either way.
	Start mapping.Mapping
}

func (o Options) withDefaults() Options {
	if o.Iters <= 0 {
		o.Iters = 4000
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	return o
}

// Minimize runs the full heuristic pipeline (greedy construction or
// opt.Start, simulated annealing, speed-down polish) on goal. The returned
// value is the best score reached, possibly +Inf when no mapping met the
// goal's bounds.
func Minimize(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule, goal pipeline.Goal, opt Options) (mapping.Mapping, float64, error) {
	return search(rng, newEvaluator(inst, goal), rule, opt)
}

// search runs restarts of (greedy init, or opt.Start on restart 0;
// speed-up; annealing; speed-down).
func search(rng *rand.Rand, ev *evaluator, rule mapping.Rule, opt Options) (mapping.Mapping, float64, error) {
	opt = opt.withDefaults()
	var best mapping.Mapping
	bestV := math.Inf(1)
	haveBest := false
	for r := 0; r < opt.Restarts; r++ {
		var m mapping.Mapping
		var err error
		if r == 0 && len(opt.Start.Apps) > 0 {
			m = opt.Start.Clone()
		} else if m, err = initial(rng, ev.inst, rule, r); err != nil {
			return mapping.Mapping{}, 0, err
		}
		speedUpIfHelpful(ev, &m)
		anneal(rng, ev, &m, rule, opt.Iters)
		v := speedDown(ev, &m)
		if !haveBest || v < bestV {
			best, bestV, haveBest = m.Clone(), v, true
		}
	}
	if !haveBest {
		return mapping.Mapping{}, 0, ErrNoMapping
	}
	return best, bestV, nil
}

// initial builds a starting mapping. Round 0 is a deterministic greedy
// construction; later rounds randomize.
func initial(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule, round int) (mapping.Mapping, error) {
	p := inst.Platform.NumProcessors()
	if rule == mapping.OneToOne {
		n := inst.TotalStages()
		if p < n {
			return mapping.Mapping{}, fmt.Errorf("%w: one-to-one needs p >= N (%d < %d)", ErrNoMapping, p, n)
		}
		// Heaviest stages on fastest processors (LPT-flavoured), or a
		// random permutation on later rounds.
		type ref struct {
			app, k int
			work   float64
		}
		var stages []ref
		for a := range inst.Apps {
			w := inst.Apps[a].EffectiveWeight()
			for k := range inst.Apps[a].Stages {
				stages = append(stages, ref{a, k, w * inst.Apps[a].Stages[k].Work})
			}
		}
		procs := procsBySpeed(inst)
		if round == 0 {
			sort.SliceStable(stages, func(i, j int) bool { return stages[i].work > stages[j].work })
		} else {
			rng.Shuffle(len(stages), func(i, j int) { stages[i], stages[j] = stages[j], stages[i] })
		}
		m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
		for i, r := range stages {
			u := procs[i]
			m.Apps[r.app].Intervals = append(m.Apps[r.app].Intervals, mapping.PlacedInterval{
				From: r.k, To: r.k, Proc: u, Mode: inst.Platform.Processors[u].NumModes() - 1,
			})
		}
		for a := range m.Apps {
			sort.Slice(m.Apps[a].Intervals, func(i, j int) bool {
				return m.Apps[a].Intervals[i].From < m.Apps[a].Intervals[j].From
			})
		}
		if err := m.Validate(inst, rule); err != nil {
			return mapping.Mapping{}, err
		}
		return m, nil
	}
	// Interval rule: distribute processors proportionally to weighted
	// total work, then split each application into equal-work chunks on
	// its fastest processors.
	if p < len(inst.Apps) {
		return mapping.Mapping{}, fmt.Errorf("%w: %d processors for %d applications", ErrNoMapping, p, len(inst.Apps))
	}
	counts := proportionalCounts(inst, p, rng, round)
	procs := procsBySpeed(inst)
	next := 0
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
	for a := range inst.Apps {
		n := inst.Apps[a].NumStages()
		k := counts[a]
		if k > n {
			k = n
		}
		myProcs := procs[next : next+k]
		next += k
		// Equal-work split into k intervals.
		pre := inst.Apps[a].WorkPrefix()
		total := pre[n]
		from := 0
		for j := 0; j < k; j++ {
			to := from
			if j == k-1 {
				to = n - 1
			} else {
				target := total * float64(j+1) / float64(k)
				for to < n-1 && pre[to+1] < target {
					to++
				}
				// Leave at least one stage per remaining interval.
				if to > n-1-(k-1-j) {
					to = n - 1 - (k - 1 - j)
				}
				if to < from {
					to = from
				}
			}
			u := myProcs[j]
			m.Apps[a].Intervals = append(m.Apps[a].Intervals, mapping.PlacedInterval{
				From: from, To: to, Proc: u, Mode: inst.Platform.Processors[u].NumModes() - 1,
			})
			from = to + 1
		}
	}
	if err := m.Validate(inst, mapping.Interval); err != nil {
		return mapping.Mapping{}, err
	}
	return m, nil
}

// procsBySpeed returns processor indices sorted by max speed descending.
func procsBySpeed(inst *pipeline.Instance) []int {
	p := inst.Platform.NumProcessors()
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	sort.SliceStable(procs, func(i, j int) bool {
		return inst.Platform.Processors[procs[i]].MaxSpeed() > inst.Platform.Processors[procs[j]].MaxSpeed()
	})
	return procs
}

// proportionalCounts splits p processors among applications proportionally
// to weighted total work (randomized on later rounds), at least one each
// and at most the stage count.
func proportionalCounts(inst *pipeline.Instance, p int, rng *rand.Rand, round int) []int {
	nApps := len(inst.Apps)
	counts := make([]int, nApps)
	works := make([]float64, nApps)
	for a := range inst.Apps {
		works[a] = inst.Apps[a].EffectiveWeight() * inst.Apps[a].TotalWork()
	}
	left := p
	for a := range counts {
		counts[a] = 1
		left--
	}
	for left > 0 {
		// Grant to the application with the highest work per processor.
		best, bestScore := -1, -1.0
		for a := range counts {
			if counts[a] >= inst.Apps[a].NumStages() {
				continue
			}
			score := works[a] / float64(counts[a])
			if round > 0 {
				score *= 0.5 + rng.Float64()
			}
			if score > bestScore {
				best, bestScore = a, score
			}
		}
		if best < 0 {
			break
		}
		counts[best]++
		left--
	}
	return counts
}
