package heur

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// workspace holds the buffers one anneal call reuses on every iteration:
// the incumbent, the candidate and their cached scores, the best mapping
// seen, and the incumbent's free processors. Each call builds its own, so
// concurrent searches share nothing.
//
// Between proposals the candidate equals the incumbent. A move changes
// one or two applications of the candidate (a1 and a2), and settle copies
// only those back.
type workspace struct {
	ev              *evaluator
	cur, cand, best mapping.Mapping
	curS, candS     scores
	a1, a2          int
	used            []bool
	free            []int
	freeOK          bool // free lists the incumbent's free processors
}

// newWorkspace copies m into the incumbent, candidate and best buffers
// and scores the incumbent and the candidate. Every buffer holds as many
// intervals per application as it has stages, the most any valid mapping
// needs, so the moves never grow them.
func newWorkspace(ev *evaluator, m *mapping.Mapping) *workspace {
	inst := ev.inst
	p := inst.Platform.NumProcessors()
	ws := &workspace{
		ev:    ev,
		cur:   newBuffer(inst),
		cand:  newBuffer(inst),
		best:  newBuffer(inst),
		curS:  newScores(len(inst.Apps)),
		candS: newScores(len(inst.Apps)),
		used:  make([]bool, p),
		free:  make([]int, 0, p),
	}
	ws.cur.CopyFrom(m)
	ws.cand.CopyFrom(m)
	ws.best.CopyFrom(m)
	ev.load(&ws.curS, &ws.cur)
	ws.candS.copyFrom(&ws.curS)
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

// propose applies one random move to the candidate and returns its score,
// re-scoring only the applications the move changed. ok is false when
// the move was inapplicable and left the candidate unchanged; otherwise
// settle must follow before the next proposal.
func (ws *workspace) propose(rng *rand.Rand, rule mapping.Rule) (v float64, ok bool) {
	ws.a1, ws.a2, ok = mutate(rng, ws.ev.inst, ws, rule)
	if !ok {
		return 0, false
	}
	return ws.ev.rescore(&ws.candS, &ws.cand, ws.a1, ws.a2), true
}

// settle ends a proposal. An accepted candidate becomes the incumbent by
// swapping their buffers and scores. Either way, the applications the
// move changed are then copied from the incumbent into the candidate, so
// the two are equal again.
func (ws *workspace) settle(accept bool) {
	if accept {
		ws.cur, ws.cand = ws.cand, ws.cur
		ws.curS, ws.candS = ws.candS, ws.curS
		ws.freeOK = false
	}
	for _, a := range [2]int{ws.a1, ws.a2} {
		ws.cand.Apps[a].Intervals = append(ws.cand.Apps[a].Intervals[:0], ws.cur.Apps[a].Intervals...)
	}
	ws.candS.copyApps(&ws.curS, ws.a1, ws.a2)
}

// keepBest records the incumbent as the best mapping seen.
func (ws *workspace) keepBest() { ws.best.CopyFrom(&ws.cur) }

// startTemp and endTemp bound anneal's geometric cooling schedule,
// relative to the initial objective value.
const startTemp, endTemp = 0.2, 1e-4

// anneal improves m by simulated annealing over the neighbourhood of
// rule's mappings for iters steps. Infeasible neighbours (score +Inf) are
// always rejected; the best mapping ever seen is restored at the end. On
// return m holds one of the workspace's buffers, not its own. It polls
// ctx at step 0 and every 1024 after it (a count, never a clock) and once
// ctx is done ends there with its error.
func anneal(ctx context.Context, rng *rand.Rand, ev *evaluator, m *mapping.Mapping, rule mapping.Rule, iters int) error {
	ws := newWorkspace(ev, m)
	cur := ev.score(&ws.curS)
	bestV := cur
	scale := math.Abs(cur)
	if math.IsInf(scale, 1) || scale == 0 {
		scale = 1
	}
	t0 := startTemp * scale
	t1 := endTemp * scale
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(iters-1)))
	temp := t0
	var err error
	for i := 0; i < iters; i++ {
		if i%1024 == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		v, ok := ws.propose(rng, rule)
		if !ok {
			temp *= cool
			continue
		}
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
		ws.settle(accept)
		if accept {
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
	return err
}

// move is one neighbourhood move: it changes m in place and returns the
// applications it changed, a1 <= a2 (equal when it changed one), or ok
// false when it was inapplicable. ws lists the free processors.
type move func(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) (a1, a2 int, ok bool)

// The move tables are read-only and shared by concurrent searches.
var (
	oneToOneMoves = []move{moveMode, moveRelocate, moveSwap}
	intervalMoves = []move{moveMode, moveRelocate, moveSwap, moveBoundary, moveSplit, moveMerge}
)

// mutate applies one random neighbourhood move to ws.cand in place and
// returns the applications it changed. ok is false when the drawn move
// was inapplicable (the caller just retries next iteration). All moves
// preserve mapping validity.
func mutate(rng *rand.Rand, inst *pipeline.Instance, ws *workspace, rule mapping.Rule) (a1, a2 int, ok bool) {
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

// freeProcs lists, in increasing order, the processors the incumbent does
// not use. Moves call it before they change the candidate, which then
// equals the incumbent, so the list is rebuilt only after an accept. The
// result is ws's scratch and must not be modified.
func (ws *workspace) freeProcs() []int {
	if ws.freeOK {
		return ws.free
	}
	clear(ws.used)
	for a := range ws.cur.Apps {
		for _, iv := range ws.cur.Apps[a].Intervals {
			ws.used[iv.Proc] = true
		}
	}
	ws.free = ws.free[:0]
	for u, b := range ws.used {
		if !b {
			ws.free = append(ws.free, u)
		}
	}
	ws.freeOK = true
	return ws.free
}

// moveMode steps one interval's mode up or down.
func moveMode(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, _ *workspace) (int, int, bool) {
	a, j := pick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	modes := inst.Platform.Processors[iv.Proc].NumModes()
	if modes == 1 {
		return 0, 0, false
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
		return 0, 0, false
	}
	iv.Mode = nm
	return a, a, true
}

// moveRelocate moves one interval to a free processor at a random mode.
func moveRelocate(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) (int, int, bool) {
	free := ws.freeProcs()
	if len(free) == 0 {
		return 0, 0, false
	}
	a, j := pick(rng, m)
	iv := &m.Apps[a].Intervals[j]
	u := free[rng.Intn(len(free))]
	iv.Proc = u
	iv.Mode = rng.Intn(inst.Platform.Processors[u].NumModes())
	return a, a, true
}

// moveSwap exchanges the processors (and modes) of two intervals.
func moveSwap(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, _ *workspace) (int, int, bool) {
	if m.NumIntervals() < 2 {
		return 0, 0, false
	}
	a1, j1 := pick(rng, m)
	a2, j2 := pick(rng, m)
	if a1 == a2 && j1 == j2 {
		return 0, 0, false
	}
	iv1 := &m.Apps[a1].Intervals[j1]
	iv2 := &m.Apps[a2].Intervals[j2]
	iv1.Proc, iv2.Proc = iv2.Proc, iv1.Proc
	iv1.Mode, iv2.Mode = iv2.Mode, iv1.Mode
	// Clamp modes to the new processors' mode counts.
	clampMode(inst, iv1)
	clampMode(inst, iv2)
	return min(a1, a2), max(a1, a2), true
}

func clampMode(inst *pipeline.Instance, iv *mapping.PlacedInterval) {
	if max := inst.Platform.Processors[iv.Proc].NumModes() - 1; iv.Mode > max {
		iv.Mode = max
	}
}

// moveBoundary shifts the boundary between two adjacent intervals of one
// application by one stage.
func moveBoundary(rng *rand.Rand, _ *pipeline.Instance, m *mapping.Mapping, _ *workspace) (int, int, bool) {
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return 0, 0, false
	}
	if j == len(ivs)-1 {
		j--
	}
	left, right := &ivs[j], &ivs[j+1]
	if rng.Intn(2) == 0 {
		// Grow left.
		if right.Len() <= 1 {
			return 0, 0, false
		}
		left.To++
		right.From++
	} else {
		if left.Len() <= 1 {
			return 0, 0, false
		}
		left.To--
		right.From--
	}
	return a, a, true
}

// moveSplit splits one interval of length >= 2 onto a free processor.
func moveSplit(rng *rand.Rand, inst *pipeline.Instance, m *mapping.Mapping, ws *workspace) (int, int, bool) {
	free := ws.freeProcs()
	if len(free) == 0 {
		return 0, 0, false
	}
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	iv := ivs[j]
	if iv.Len() < 2 {
		return 0, 0, false
	}
	cut := iv.From + rng.Intn(iv.Len()-1) // new boundary after stage `cut`
	u := free[rng.Intn(len(free))]
	right := mapping.PlacedInterval{From: cut + 1, To: iv.To, Proc: u, Mode: rng.Intn(inst.Platform.Processors[u].NumModes())}
	ivs[j].To = cut
	m.Apps[a].Intervals = slices.Insert(ivs, j+1, right)
	return a, a, true
}

// moveMerge merges two adjacent intervals of one application onto one of
// their two processors, freeing the other.
func moveMerge(rng *rand.Rand, _ *pipeline.Instance, m *mapping.Mapping, _ *workspace) (int, int, bool) {
	a, j := pick(rng, m)
	ivs := m.Apps[a].Intervals
	if len(ivs) < 2 {
		return 0, 0, false
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
	return a, a, true
}

// speedDown is the deterministic greedy polish: repeatedly apply the single
// mode decrement with the best score improvement until none helps. It
// returns m's final score.
func speedDown(ev *evaluator, m *mapping.Mapping) float64 {
	base, trial := &ev.base, &ev.trial
	cur := ev.load(base, m)
	for {
		trial.copyFrom(base)
		bestA, bestJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode == 0 {
					continue
				}
				iv.Mode--
				if v := ev.rescore(trial, m, a, a); v < bestV {
					bestV, bestA, bestJ = v, a, j
				}
				trial.copyApps(base, a, a)
				iv.Mode++
			}
		}
		if bestA < 0 {
			return cur
		}
		m.Apps[bestA].Intervals[bestJ].Mode--
		cur = ev.rescore(base, m, bestA, bestA)
	}
}

// speedUpIfHelpful raises modes greedily while the score improves; used
// to make period/latency starts feasible before annealing on bounded
// problems.
func speedUpIfHelpful(ev *evaluator, m *mapping.Mapping) {
	base, trial := &ev.base, &ev.trial
	cur := ev.load(base, m)
	for {
		trial.copyFrom(base)
		improvedA, improvedJ := -1, -1
		bestV := cur
		for a := range m.Apps {
			for j := range m.Apps[a].Intervals {
				iv := &m.Apps[a].Intervals[j]
				if iv.Mode >= ev.inst.Platform.Processors[iv.Proc].NumModes()-1 {
					continue
				}
				iv.Mode++
				v := ev.rescore(trial, m, a, a)
				trial.copyApps(base, a, a)
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
		cur = ev.rescore(base, m, improvedA, improvedA)
	}
}
