package exact

import (
	"context"
	"math"
	"sync"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// SearchStats instruments one Minimize run. The counters let tests pin the
// effect of pruning and symmetry breaking and let callers report search
// effort.
type SearchStats struct {
	// Nodes counts interval placements pushed onto the search path.
	Nodes int64
	// Leaves counts complete mappings reached. With NoPrune this equals
	// the full CountMappings space; with pruning it is usually far smaller.
	Leaves int64
	// PrunedBound counts subtrees cut because a partially evaluated
	// mapping already violated a period/latency bound or the energy
	// budget.
	PrunedBound int64
	// PrunedWorse counts subtrees cut because an admissible lower bound on
	// the objective already reached the incumbent.
	PrunedWorse int64
	// SymSkipped counts placements skipped because an interchangeable
	// lower-indexed free processor was already tried at the same node.
	SymSkipped int64
	// Classes is the number of processor equivalence classes (p when the
	// platform has no interchangeable processors).
	Classes int
	// Tried counts (interval, processor, mode) placements tried, before
	// the admissibility test: the work Options.Budget bounds.
	Tried int64
}

// searcher is the reusable branch-and-bound arena. All slices are resized in
// place on reuse, so a pooled searcher allocates nothing on the hot path
// after warm-up.
type searcher struct {
	ctx  context.Context
	inst *pipeline.Instance
	opt  Options
	goal pipeline.Goal

	prune               bool // !opt.NoPrune
	hasPB, hasLB, hasEB bool
	needEnergy          bool // objective is energy or a budget is set

	// Platform tables, rebuilt per run.
	weights  []float64 // per-app effective weight
	powOff   []int     // powers[powOff[u]+mode] = Power(Speeds[mode])
	powers   []float64
	minPow   float64 // least power of any enumerable (proc, mode) pair
	classOf  []int   // proc -> equivalence class
	classRep []int   // first member per class
	// symStamp is one stamp row per search depth: symStamp[depth*classes+c]
	// records the generation at which class c was last offered at that
	// depth. Rows are per depth because the recursion runs *inside* the
	// processor loop — a single shared row would be clobbered by the
	// subtree before the loop resumes, aliasing unrelated nodes.
	symStamp []int64
	gen      int64
	needOff  []int // needIvs[needOff[a]+from] = min intervals left at (a, from)
	needIvs  []int

	// Mutable search state.
	used       []bool
	free       int
	depth      int // intervals currently placed (selects the symStamp row)
	m          mapping.Mapping
	energy     float64
	violations int // NoPrune only: completed apps violating their bounds

	best    mapping.Mapping
	bestVal float64
	found   bool
	left    int64
	budget  int64 // the most placements to try (Options.Budget, or unbounded)
	stats   SearchStats
}

var searchPool = sync.Pool{New: func() any { return new(searcher) }}

// Minimize runs the branch-and-bound search for goal over the mapping space
// selected by opt and returns the optimal solution. Partial period, latency
// and energy values are accumulated incrementally along the search path
// (each node costs O(1) on top of its parent, in the exact floating-point
// operation order of the mapping evaluator, so results are bit-identical to
// evaluating complete mappings); subtrees are cut as soon as a partial
// mapping provably violates a bound or an admissible lower bound on the
// objective reaches the incumbent; and on platforms with interchangeable
// processors only the lowest-indexed free member of each equivalence class
// is tried per node. Options.NoPrune disables the cuts and the symmetry
// breaking — the reference path visits the entire space, which is what the
// differential harness compares against.
//
// Options.Limit bounds the number of complete mappings visited (leaves
// reached); the pruned search reaches far fewer leaves than Enumerate, so it
// may succeed where the blind enumeration would overrun the same limit.
// Options.Budget bounds the placements tried, which is what the search's
// time follows: most of the work is in interior nodes, not at leaves.
// Past either, Minimize returns ErrSearchSpace together with the best
// mapping found so far, if any (Solution.Mapping is then non-empty and
// Value its objective, an upper bound on the optimum). It polls ctx at
// the first placement and every 1024 after it, and once ctx is done stops
// the same way, with the context's error.
func Minimize(ctx context.Context, inst *pipeline.Instance, opt Options, goal pipeline.Goal) (Solution, error) {
	s := searchPool.Get().(*searcher)
	sol, err := s.run(ctx, inst, opt, goal)
	s.ctx, s.inst = nil, nil // do not retain the caller's state while pooled
	searchPool.Put(s)
	return sol, err
}

func (s *searcher) run(ctx context.Context, inst *pipeline.Instance, opt Options, goal pipeline.Goal) (Solution, error) {
	s.ctx = ctx
	s.init(inst, opt, goal)
	err := s.app(0, 0)
	if !s.found {
		if err == nil {
			err = ErrInfeasible
		}
		return Solution{Stats: s.stats}, err
	}
	return Solution{Mapping: s.best.Clone(), Value: s.bestVal, Stats: s.stats}, err
}

func (s *searcher) init(inst *pipeline.Instance, opt Options, goal pipeline.Goal) {
	s.inst, s.opt, s.goal = inst, opt, goal
	s.prune = !opt.NoPrune
	s.hasPB = goal.PeriodBounds != nil
	s.hasLB = goal.LatencyBounds != nil
	s.hasEB = goal.EnergyBudget > 0

	p := inst.Platform.NumProcessors()
	apps := len(inst.Apps)

	s.used = resizeBools(s.used, p)
	for u := range s.used {
		s.used[u] = false
	}
	s.free = p

	s.m.Apps = resizeAppMappings(s.m.Apps, apps)
	for a := range s.m.Apps {
		s.m.Apps[a].Intervals = s.m.Apps[a].Intervals[:0]
	}

	s.weights = resizeFloats(s.weights, apps)
	for a := range inst.Apps {
		s.weights[a] = inst.Apps[a].EffectiveWeight()
	}

	// Power table: Energy.Power is a math.Pow behind the scenes; paying it
	// once per (processor, mode) instead of once per visited leaf removes
	// it from the hot path while keeping bit-identical sums. When neither
	// the objective nor a budget involves energy the table is skipped
	// entirely — the search never reads it then.
	s.needEnergy = goal.Objective == pipeline.Energy || s.hasEB
	total := 0
	if s.needEnergy {
		s.powOff = resizeInts(s.powOff, p)
		for u := 0; u < p; u++ {
			s.powOff[u] = total
			total += inst.Platform.Processors[u].NumModes()
		}
		s.powers = resizeFloats(s.powers, total)
		s.minPow = math.Inf(1)
		for u := 0; u < p; u++ {
			pr := &inst.Platform.Processors[u]
			lo := 0
			if opt.Modes == FastestOnly {
				lo = pr.NumModes() - 1
			}
			for mode := 0; mode < pr.NumModes(); mode++ {
				pw := inst.Energy.Power(pr.Speeds[mode])
				s.powers[s.powOff[u]+mode] = pw
				if mode >= lo {
					s.minPow = math.Min(s.minPow, pw)
				}
			}
		}
	}

	s.buildClasses()

	// needIvs[a][from]: the fewest intervals still to be placed when the
	// search stands at stage `from` of application a — an admissible count
	// of future energy additions.
	s.needOff = resizeInts(s.needOff, apps)
	total = 0
	for a := 0; a < apps; a++ {
		s.needOff[a] = total
		total += inst.Apps[a].NumStages() + 1
	}
	s.needIvs = resizeInts(s.needIvs, total)
	future := 0
	for a := apps - 1; a >= 0; a-- {
		n := inst.Apps[a].NumStages()
		off := s.needOff[a]
		s.needIvs[off+n] = future
		for from := n - 1; from >= 0; from-- {
			if opt.Rule == mapping.OneToOne {
				s.needIvs[off+from] = (n - from) + future
			} else {
				s.needIvs[off+from] = 1 + future
			}
		}
		future = s.needIvs[off]
	}

	// One symmetry-stamp row per possible depth: every placed interval
	// covers at least one stage, so the depth never exceeds the total stage
	// count.
	maxDepth := 0
	for a := range inst.Apps {
		maxDepth += inst.Apps[a].NumStages()
	}
	s.symStamp = resizeInt64s(s.symStamp, (maxDepth+1)*len(s.classRep))
	for i := range s.symStamp {
		s.symStamp[i] = 0
	}
	s.gen = 0
	s.depth = 0

	s.energy = 0
	s.violations = 0
	s.bestVal = math.Inf(1)
	s.found = false
	s.left = opt.limit()
	s.budget = opt.Budget
	if s.budget <= 0 {
		s.budget = math.MaxInt64
	}
	s.stats = SearchStats{Classes: s.stats.Classes}
}

// buildClasses partitions the processors into equivalence classes of
// interchangeable members: swapping two class members in any valid mapping
// leaves every metric bit-identical, so the search only ever tries the
// lowest-indexed free member of each class at a node. The predicate is
// deliberately bitwise — a tolerance here would merge processors whose
// mappings evaluate to different floats and corrupt optima.
func (s *searcher) buildClasses() {
	p := s.inst.Platform.NumProcessors()
	s.classOf = resizeInts(s.classOf, p)
	reps := s.classRep[:0]
	for u := 0; u < p; u++ {
		class := -1
		for c, r := range reps {
			if interchangeable(s.inst, r, u) {
				class = c
				break
			}
		}
		if class < 0 {
			reps = append(reps, u)
			class = len(reps) - 1
		}
		s.classOf[u] = class
	}
	s.classRep = reps
	s.stats.Classes = len(reps)
}

// interchangeable reports whether processors u and v can be swapped in any
// mapping without changing a single bit of any metric: identical speed
// vectors (hence identical computation times and powers) and identical
// link profiles towards every application and every third processor. The
// relation is transitive, so greedy classing against representatives is
// sound.
func interchangeable(inst *pipeline.Instance, u, v int) bool {
	pl := &inst.Platform
	su, sv := pl.Processors[u].Speeds, pl.Processors[v].Speeds
	if len(su) != len(sv) {
		return false
	}
	for i := range su {
		//lint:allow floatcmp interchangeability must be bitwise: tolerant classes would alter exact optima
		if su[i] != sv[i] {
			return false
		}
	}
	for a := range inst.Apps {
		//lint:allow floatcmp interchangeability must be bitwise: tolerant classes would alter exact optima
		if pl.InLink(a, u) != pl.InLink(a, v) || pl.OutLink(a, u) != pl.OutLink(a, v) {
			return false
		}
	}
	for w := 0; w < pl.NumProcessors(); w++ {
		if w == u || w == v {
			continue
		}
		//lint:allow floatcmp interchangeability must be bitwise: tolerant classes would alter exact optima
		if pl.Link(u, w) != pl.Link(v, w) || pl.Link(w, u) != pl.Link(w, v) {
			return false
		}
	}
	//lint:allow floatcmp interchangeability must be bitwise: tolerant classes would alter exact optima
	return pl.Link(u, v) == pl.Link(v, u)
}

// app advances the search to application a. objDone is the exact weighted
// objective prefix over completed applications (running max for period and
// latency; energy accumulates globally in s.energy).
func (s *searcher) app(a int, objDone float64) error {
	if a == len(s.inst.Apps) {
		return s.leaf(objDone)
	}
	return s.place(a, 0, objDone, 0, 0, 0, 0)
}

// leaf visits one complete mapping. All feasibility was either enforced on
// the way down (pruned mode) or tallied in s.violations (NoPrune mode).
func (s *searcher) leaf(objDone float64) error {
	s.left--
	if s.left < 0 {
		return ErrSearchSpace
	}
	s.stats.Leaves++
	if s.violations > 0 {
		return nil
	}
	if s.hasEB && !fmath.LE(s.energy, s.goal.EnergyBudget) {
		return nil
	}
	v := objDone
	if s.goal.Objective == pipeline.Energy {
		v = s.energy
	}
	if !s.found || v < s.bestVal {
		s.bestVal = v
		s.found = true
		s.copyBest()
	}
	return nil
}

// place extends application a from stage `from` onward.
//
// The partial-evaluation state threaded through the recursion replicates
// mapping.AppPeriod/AppLatency/Energy operation for operation:
//
//   - appMax is the exact running max over the interval costs of a that are
//     fully known (an interval's cost closes only once the *next* placement
//     fixes its outgoing link);
//   - lat is a's latency prefix — in_0 plus one fl(comp_j + out_j) term per
//     closed interval, in AppLatency's exact addition order;
//   - pendIn/pendComp are the last placed interval's incoming and
//     computation times, still awaiting their outgoing time (meaningful only
//     when from > 0).
//
// Every partial value is a bitwise lower bound of its completed
// counterpart (max is exact; IEEE addition and multiplication by a positive
// weight are monotone under rounding), so the fmath.LE feasibility cuts and
// the >= incumbent cuts can never discard a mapping the blind enumeration
// would have accepted.
func (s *searcher) place(a, from int, objDone, appMax, lat, pendIn, pendComp float64) error {
	app := &s.inst.Apps[a]
	n := app.NumStages()
	if from == n {
		return s.complete(a, objDone, appMax, lat, pendComp)
	}
	// Each remaining application still needs at least one free processor.
	if s.free <= len(s.inst.Apps)-a-1 {
		return nil
	}
	pl := &s.inst.Platform
	hi := n - 1
	if s.opt.Rule == mapping.OneToOne {
		hi = from
	}
	prevProc := -1
	if from > 0 {
		ivs := s.m.Apps[a].Intervals
		prevProc = ivs[len(ivs)-1].Proc
	}
	vol := app.InputSize(from) // == OutputSize(from-1) when from > 0
	var work float64
	for to := from; to <= hi; to++ {
		work += app.Stages[to].Work // bit-identical to IntervalWork(from, to)
		s.gen++
		gen := s.gen // recursion below advances s.gen; this node keeps its own
		for u := 0; u < pl.NumProcessors(); u++ {
			if s.used[u] {
				continue
			}
			if s.prune {
				// Only the first free member of each equivalence class is
				// tried per node; stamps live in this depth's own row so the
				// subtree recursion below cannot alias them.
				slot := s.depth*len(s.classRep) + s.classOf[u]
				if s.symStamp[slot] == gen {
					s.stats.SymSkipped++
					continue
				}
				s.symStamp[slot] = gen
			}
			// Placing on u fixes the previous interval's outgoing link, so
			// its cost closes here; its out time doubles as this interval's
			// in time (same volume over the same link).
			var in, appMax2, lat2 float64
			if from == 0 {
				in = commTime(vol, pl.InLink(a, u))
				appMax2, lat2 = appMax, in
			} else {
				in = commTime(vol, pl.Link(prevProc, u))
				closed := mapping.IntervalCost(s.goal.Model, pendIn, pendComp, in)
				appMax2 = fmath.Max(appMax, closed)
				lat2 = lat + (pendComp + in)
				if s.prune {
					if s.hasPB && !fmath.LE(closed, s.goal.PeriodBounds[a]) {
						s.stats.PrunedBound++
						continue
					}
					if s.hasLB && !fmath.LE(lat2, s.goal.LatencyBounds[a]) {
						s.stats.PrunedBound++
						continue
					}
				}
			}
			pr := &pl.Processors[u]
			modes := pr.NumModes()
			lo := 0
			if s.opt.Modes == FastestOnly {
				lo = modes - 1
			}
			s.used[u] = true
			s.free--
			for mode := lo; mode < modes; mode++ {
				var err error
				switch {
				case s.stats.Tried == s.budget:
					err = ErrSearchSpace
				case s.stats.Tried%1024 == 0: // a count, never a clock
					err = s.ctx.Err()
				}
				if err != nil {
					s.used[u] = false
					s.free++
					return err
				}
				s.stats.Tried++
				comp := work / pr.Speeds[mode]
				en := s.energy
				if s.needEnergy {
					en += s.powers[s.powOff[u]+mode]
				}
				if s.prune && !s.admissible(a, to, objDone, appMax2, lat2, in, comp, en) {
					continue
				}
				s.m.Apps[a].Intervals = append(s.m.Apps[a].Intervals, mapping.PlacedInterval{
					From: from, To: to, Proc: u, Mode: mode,
				})
				saved := s.energy
				s.energy = en
				s.depth++
				s.stats.Nodes++
				err = s.place(a, to+1, objDone, appMax2, lat2, in, comp)
				s.depth--
				s.energy = saved
				s.m.Apps[a].Intervals = s.m.Apps[a].Intervals[:len(s.m.Apps[a].Intervals)-1]
				if err != nil {
					s.used[u] = false
					s.free++
					return err
				}
			}
			s.used[u] = false
			s.free++
		}
	}
	return nil
}

// admissible vets a candidate placement of [from..to] against the bounds
// and the incumbent using only bitwise lower bounds; a false return cuts
// the whole subtree.
func (s *searcher) admissible(a, to int, objDone, appMax2, lat2, in, comp, en float64) bool {
	// The open interval's cost is already at least its in/comp part (its
	// outgoing time can only raise it: max is monotone, and under
	// no-overlap fl(fl(in+comp)+out) >= fl(in+comp)).
	part := mapping.IntervalCost(s.goal.Model, in, comp, 0)
	if s.hasPB && !fmath.LE(part, s.goal.PeriodBounds[a]) {
		s.stats.PrunedBound++
		return false
	}
	if s.hasLB && !fmath.LE(lat2+comp, s.goal.LatencyBounds[a]) {
		s.stats.PrunedBound++
		return false
	}
	if s.hasEB && !fmath.LE(en, s.goal.EnergyBudget) {
		s.stats.PrunedBound++
		return false
	}
	if !s.found {
		return true
	}
	var lb float64
	switch s.goal.Objective {
	case pipeline.Period:
		lb = fmath.Max(objDone, s.weights[a]*fmath.Max(appMax2, part))
	case pipeline.Latency:
		lb = fmath.Max(objDone, s.weights[a]*(lat2+comp))
	default:
		// Every future interval draws at least the platform's cheapest
		// enumerable power; adding it the same way the energy sum grows
		// keeps the bound admissible bit for bit.
		lb = en
		for k := s.needIvs[s.needOff[a]+to+1]; k > 0; k-- {
			lb += s.minPow
		}
	}
	//lint:allow floatcmp incumbent cut must be exact: the incumbent only improves on strictly smaller values
	if lb >= s.bestVal {
		s.stats.PrunedWorse++
		return false
	}
	return true
}

// complete closes application a: the last interval's outgoing time (over
// the application's output link) finalizes T_a and L_a, the bounds are
// checked on the exact values, and the objective prefix absorbs the
// weighted result.
func (s *searcher) complete(a int, objDone, appMax, lat, pendComp float64) error {
	app := &s.inst.Apps[a]
	n := app.NumStages()
	ivs := s.m.Apps[a].Intervals
	last := ivs[len(ivs)-1]
	out := commTime(app.OutputSize(n-1), s.inst.Platform.OutLink(a, last.Proc))
	var pendIn float64
	if len(ivs) == 1 {
		pendIn = commTime(app.InputSize(0), s.inst.Platform.InLink(a, last.Proc))
	} else {
		prev := ivs[len(ivs)-2]
		pendIn = commTime(app.InputSize(last.From), s.inst.Platform.Link(prev.Proc, last.Proc))
	}
	ta := fmath.Max(appMax, mapping.IntervalCost(s.goal.Model, pendIn, pendComp, out))
	la := lat + (pendComp + out)

	violated := (s.hasPB && !fmath.LE(ta, s.goal.PeriodBounds[a])) ||
		(s.hasLB && !fmath.LE(la, s.goal.LatencyBounds[a]))
	if violated && s.prune {
		s.stats.PrunedBound++
		return nil
	}
	next := objDone
	switch s.goal.Objective {
	case pipeline.Period:
		next = fmath.Max(objDone, s.weights[a]*ta)
	case pipeline.Latency:
		next = fmath.Max(objDone, s.weights[a]*la)
	}
	if s.prune && s.found && s.goal.Objective != pipeline.Energy {
		//lint:allow floatcmp incumbent cut must be exact: the incumbent only improves on strictly smaller values
		if next >= s.bestVal {
			s.stats.PrunedWorse++
			return nil
		}
	}
	if violated {
		s.violations++
	}
	err := s.app(a+1, next)
	if violated {
		s.violations--
	}
	return err
}

// copyBest snapshots the current mapping into the reusable incumbent
// storage (no allocation after warm-up; the final Solution clones it once).
func (s *searcher) copyBest() {
	s.best.Apps = resizeAppMappings(s.best.Apps, len(s.m.Apps))
	for a := range s.m.Apps {
		s.best.Apps[a].Intervals = append(s.best.Apps[a].Intervals[:0], s.m.Apps[a].Intervals...)
	}
}

// commTime mirrors the mapping evaluator's transfer time: a zero-volume
// transfer costs nothing, even over a zero-capacity link.
func commTime(vol, bw float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / bw
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeAppMappings(s []mapping.AppMapping, n int) []mapping.AppMapping {
	if cap(s) < n {
		return make([]mapping.AppMapping, n)
	}
	return s[:n]
}
