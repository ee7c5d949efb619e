package heur

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// workspace holds the buffers one anneal call reuses on every iteration:
// the incumbent, the candidate, the best mapping seen, and the scratch of
// freeProcs. Each call builds its own, so concurrent searches share
// nothing.
type workspace struct {
	cur, cand, best mapping.Mapping
	used            []bool
	free            []int
}

// newWorkspace copies m into the incumbent and best buffers. Every buffer
// holds as many intervals per application as it has stages, the most any
// valid mapping needs, so the moves never grow them.
func newWorkspace(inst *pipeline.Instance, m *mapping.Mapping) *workspace {
	p := inst.Platform.NumProcessors()
	ws := &workspace{
		cur:  newBuffer(inst),
		cand: newBuffer(inst),
		best: newBuffer(inst),
		used: make([]bool, p),
		free: make([]int, 0, p),
	}
	ws.cur.CopyFrom(m)
	ws.best.CopyFrom(m)
	return ws
}

// newBuffer returns an empty mapping of inst whose applications' interval
// slices are capped windows of one shared array.
func newBuffer(inst *pipeline.Instance) mapping.Mapping {
	ivs := make([]mapping.PlacedInterval, inst.TotalStages())
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
	off := 0
	for a := range m.Apps {
		n := inst.Apps[a].NumStages()
		m.Apps[a].Intervals = ivs[off : off : off+n]
		off += n
	}
	return m
}

// propose copies the incumbent into the candidate and applies one random
// move to the candidate, reporting whether the move applied.
func (ws *workspace) propose(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule) bool {
	ws.cand.CopyFrom(&ws.cur)
	return mutate(rng, inst, ws, rule)
}

// accept makes the candidate the incumbent by swapping their buffers.
func (ws *workspace) accept() { ws.cur, ws.cand = ws.cand, ws.cur }

// keepBest records the incumbent as the best mapping seen.
func (ws *workspace) keepBest() { ws.best.CopyFrom(&ws.cur) }

// anneal improves m by simulated annealing over the interval mapping
// neighbourhood, returning the final objective value. Infeasible
// neighbours (objective +Inf) are always rejected; the best mapping ever
// seen is restored at the end. On return m holds one of the workspace's
// buffers, not its own.
func anneal(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, obj Objective, opt Options) float64 {
	ws := newWorkspace(inst, m)
	cur := obj(&ws.cur)
	bestV := cur
	scale := math.Abs(cur)
	if math.IsInf(scale, 1) || scale == 0 {
		scale = 1
	}
	t0 := opt.StartTemp * scale
	t1 := opt.EndTemp * scale
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(opt.Iters-1)))
	temp := t0
	for i := 0; i < opt.Iters; i++ {
		if !ws.propose(rng, inst, opt.Rule) {
			temp *= cool
			continue
		}
		v := obj(&ws.cand)
		accept := false
		switch {
		case math.IsInf(v, 1):
			accept = false
		//lint:allow floatcmp annealing acceptance is heuristic; tolerance would only perturb accept probability
		case v <= cur:
			accept = true
		case !math.IsInf(cur, 1):
			accept = rng.Float64() < math.Exp((cur-v)/temp)
		default:
			accept = true // escape from an infeasible start
		}
		if accept {
			ws.accept()
			cur = v
			if v < bestV {
				ws.keepBest()
				bestV = v
			}
		}
		temp *= cool
	}
	if bestV < cur {
		*m = ws.best
	} else {
		*m = ws.cur
	}
	return bestV
}

// move is one neighbourhood move: it changes m in place and reports false
// when it was inapplicable. ws supplies freeProcs' scratch.
type move func(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) bool

// The move tables are read-only and shared by concurrent searches.
var (
	oneToOneMoves = []move{moveMode, moveRelocate, moveSwap}
	intervalMoves = []move{moveMode, moveRelocate, moveSwap, moveBoundary, moveSplit, moveMerge}
)

// mutate applies one random neighbourhood move to ws.cand in place. It
// reports false when the drawn move was inapplicable (the caller just
// retries next iteration). All moves preserve mapping validity.
func mutate(rng *rand.Rand, inst *pipeline.Instance, ws *workspace, rule mapping.Rule) bool {
	moves := oneToOneMoves
	if rule == mapping.Interval {
		moves = intervalMoves
	}
	return moves[rng.Intn(len(moves))](rng, inst, &ws.cand, ws)
}

// pick returns a random (app, interval index) pair.
func pick(rng *rand.Rand, m *mapping.Mapping) (int, int) {
	total := m.NumIntervals()
	i := rng.Intn(total)
	for a := range m.Apps {
		if i < len(m.Apps[a].Intervals) {
			return a, i
		}
		i -= len(m.Apps[a].Intervals)
	}
	panic("unreachable")
}

// freeProcs lists, in increasing order, the processors not used by m. The
// result is ws's scratch, valid until the next call.
func (ws *workspace) freeProcs(m *mapping.Mapping) []int {
	clear(ws.used)
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			ws.used[iv.Proc] = true
		}
	}
	ws.free = ws.free[:0]
	for u, b := range ws.used {
		if !b {
			ws.free = append(ws.free, u)
		}
	}
	return ws.free
}

// moveMode steps one interval's mode up or down.
func moveMode(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, _ *workspace) bool {
	a, j := pick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	modes := inst.Platform.Processors[iv.Proc].NumModes()
	if modes == 1 {
		return false
	}
	delta := 1
	if rng.Intn(2) == 0 {
		delta = -1
	}
	nm := iv.Mode + delta
	if nm < 0 || nm >= modes {
		nm = iv.Mode - delta
	}
	if nm < 0 || nm >= modes {
		return false
	}
	iv.Mode = nm
	return true
}

// moveRelocate moves one interval to a free processor at a random mode.
func moveRelocate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) bool {
	free := ws.freeProcs(m)
	if len(free) == 0 {
		return false
	}
	a, j := pick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	u := free[rng.Intn(len(free))]
	iv.Proc = u
	iv.Mode = rng.Intn(inst.Platform.Processors[u].NumModes())
	return true
}

// moveSwap exchanges the processors (and modes) of two intervals.
func moveSwap(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, _ *workspace) bool {
	if m.NumIntervals() < 2 {
		return false
	}
	a1, j1 := pick(rng, m)
	a2, j2 := pick(rng, m)
	if a1 == a2 && j1 == j2 {
		return false
	}
	iv1 := &m.Apps[a1].Intervals[j1]
	iv2 := &m.Apps[a2].Intervals[j2]
	iv1.Proc, iv2.Proc = iv2.Proc, iv1.Proc
	iv1.Mode, iv2.Mode = iv2.Mode, iv1.Mode
	// Clamp modes to the new processors' mode counts.
	clampMode(inst, iv1)
	clampMode(inst, iv2)
	return true
}

func clampMode(inst *pipeline.Instance, iv *mapping.PlacedInterval) {
	if max := inst.Platform.Processors[iv.Proc].NumModes() - 1; iv.Mode > max {
		iv.Mode = max
	}
}

// moveBoundary shifts the boundary between two adjacent intervals of one
// application by one stage.
func moveBoundary(rng *rand.Rand, _ *pipeline.Instance, m *mapping.Mapping, _ *workspace) bool {
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return false
	}
	if j == len(ivs)-1 {
		j--
	}
	left, right := &ivs[j], &ivs[j+1]
	if rng.Intn(2) == 0 {
		// Grow left.
		if right.Len() <= 1 {
			return false
		}
		left.To++
		right.From++
	} else {
		if left.Len() <= 1 {
			return false
		}
		left.To--
		right.From--
	}
	return true
}

// moveSplit splits one interval of length >= 2 onto a free processor.
func moveSplit(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) bool {
	free := ws.freeProcs(m)
	if len(free) == 0 {
		return false
	}
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	iv := ivs[j]
	if iv.Len() < 2 {
		return false
	}
	cut := iv.From + rng.Intn(iv.Len()-1) // new boundary after stage `cut`
	u := free[rng.Intn(len(free))]
	right := mapping.PlacedInterval{From: cut + 1, To: iv.To, Proc: u, Mode: rng.Intn(inst.Platform.Processors[u].NumModes())}
	ivs[j].To = cut
	m.Apps[a].Intervals = slices.Insert(ivs, j+1, right)
	return true
}

// moveMerge merges two adjacent intervals of one application onto one of
// their two processors, freeing the other.
func moveMerge(rng *rand.Rand, _ *pipeline.Instance, m *mapping.Mapping, _ *workspace) bool {
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return false
	}
	if j == len(ivs)-1 {
		j--
	}
	keep := ivs[j]
	if rng.Intn(2) == 1 {
		keep = ivs[j+1]
	}
	keep.From = ivs[j].From
	keep.To = ivs[j+1].To
	ivs[j] = keep
	m.Apps[a].Intervals = slices.Delete(ivs, j+1, j+2)
	return true
}

// speedDown is the deterministic greedy polish: repeatedly apply the single
// mode decrement with the best objective improvement until none helps.
func speedDown(inst *pipeline.Instance, m *mapping.Mapping, obj Objective) {
	for {
		cur := obj(m)
		bestA, bestJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode == 0 {
					continue
				}
				iv.Mode--
				if v := obj(m); v < bestV {
					bestV, bestA, bestJ = v, a, j
				}
				iv.Mode++
			}
		}
		if bestA < 0 {
			return
		}
		m.Apps[bestA].Intervals[bestJ].Mode--
	}
}

// speedUpIfHelpful raises modes greedily while the objective improves; used
// to make period/latency starts feasible before annealing on bounded
// problems.
func speedUpIfHelpful(inst *pipeline.Instance, m *mapping.Mapping, obj Objective) {
	for {
		cur := obj(m)
		improvedA, improvedJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode >= inst.Platform.Processors[iv.Proc].NumModes()-1 {
					continue
				}
				iv.Mode++
				v := obj(m)
				iv.Mode--
				if v < bestV || (math.IsInf(cur, 1) && !math.IsInf(v, 1)) {
					bestV, improvedA, improvedJ = v, a, j
				}
			}
		}
		if improvedA < 0 {
			return
		}
		m.Apps[improvedA].Intervals[improvedJ].Mode++
	}
}
