package heur

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// Criterion is the value a Goal minimizes.
type Criterion int

const (
	// Period is the weighted global period max_a W_a*T_a (Equation 6).
	Period Criterion = iota
	// Latency is the weighted global latency max_a W_a*L_a (Equation 6).
	Latency
	// Energy is the total power of the enrolled processors (Section 3.5).
	Energy
)

// Goal is what a search minimizes: one criterion under optional
// per-application bounds and an energy budget. A mapping that breaks a
// bound (compared with fmath.LE) scores +Inf.
type Goal struct {
	// Objective is the criterion minimized.
	Objective Criterion
	// Model is the communication model of the periods.
	Model pipeline.CommModel
	// PeriodBounds and LatencyBounds, when non-nil, bound each
	// application's unweighted T_a and L_a.
	PeriodBounds, LatencyBounds []float64
	// EnergyBudget, when positive, bounds the total energy.
	EnergyBudget float64
}

// scores caches the per-application values of one mapping.
type scores struct {
	period, latency []float64 // T_a and L_a
	// energy[a] is PowerTable.Energy's running sum over the applications
	// before a; energy[len(apps)] is the total.
	energy []float64
}

func newScores(apps int) scores {
	buf := make([]float64, 3*apps+1)
	return scores{period: buf[:apps:apps], latency: buf[apps : 2*apps : 2*apps], energy: buf[2*apps:]}
}

func (s *scores) copyFrom(src *scores) {
	copy(s.period, src.period)
	copy(s.latency, src.latency)
	copy(s.energy, src.energy)
}

// copyApps copies src's scores of applications a1 <= a2 and its energy
// sums from a1 on: after a move that changed only a1 and a2, s equals src
// again.
func (s *scores) copyApps(src *scores, a1, a2 int) {
	s.period[a1], s.latency[a1] = src.period[a1], src.latency[a1]
	s.period[a2], s.latency[a2] = src.period[a2], src.latency[a2]
	copy(s.energy[a1:], src.energy[a1:])
}

// evaluator scores mappings against one Goal. A move changes one or two
// applications, so rescore recomputes only those applications' T_a and
// L_a, and the energy sum from the first of them on; every other value is
// read from the cache.
//
// The scores are bit-identical to mapping.Evaluate and PowerTable.Energy:
// each interval's (in, comp, out) is computed as mapping.intervalTimes
// does, the maxima are exact in any order, and the energy sum resumes at
// the first changed application in PowerTable.Energy's addition order.
// Every operand of a maximum here is non-negative and never NaN or -0 (a
// validated instance has finite positive works, speeds and bandwidths),
// so a plain > comparison picks the same bits as math.Max.
type evaluator struct {
	inst  *pipeline.Instance
	goal  Goal
	power mapping.PowerTable
	// base and trial are the greedy passes' scratch.
	base, trial scores
}

func newEvaluator(inst *pipeline.Instance, goal Goal) *evaluator {
	return &evaluator{
		inst:  inst,
		goal:  goal,
		power: mapping.NewPowerTable(inst),
		base:  newScores(len(inst.Apps)),
		trial: newScores(len(inst.Apps)),
	}
}

// load fills s from every application of m and returns m's score.
func (ev *evaluator) load(s *scores, m *mapping.Mapping) float64 {
	for a := range m.Apps {
		s.period[a], s.latency[a] = ev.app(m, a)
	}
	ev.resumeEnergy(s, m, 0)
	return ev.score(s)
}

// rescore updates s, which holds the scores of m before a move that
// changed applications a1 <= a2 (a1 == a2 when it changed one), and
// returns m's score.
func (ev *evaluator) rescore(s *scores, m *mapping.Mapping, a1, a2 int) float64 {
	s.period[a1], s.latency[a1] = ev.app(m, a1)
	if a2 != a1 {
		s.period[a2], s.latency[a2] = ev.app(m, a2)
	}
	ev.resumeEnergy(s, m, a1)
	return ev.score(s)
}

// app returns T_a and L_a of application a under m (Equations 3-5). An
// interval's incoming communication is its predecessor's outgoing one:
// the same volume over the same link, so it is computed once.
func (ev *evaluator) app(m *mapping.Mapping, a int) (t, l float64) {
	app := &ev.inst.Apps[a]
	pl := &ev.inst.Platform
	ivs := m.Apps[a].Intervals
	var in float64
	if app.In != 0 {
		in = app.In / pl.InLink(a, ivs[0].Proc)
	}
	l = in
	for j, iv := range ivs {
		comp := app.IntervalWork(iv.From, iv.To) / pl.Processors[iv.Proc].Speeds[iv.Mode]
		var out float64
		if vol := app.OutputSize(iv.To); vol != 0 {
			if j == len(ivs)-1 {
				out = vol / pl.OutLink(a, iv.Proc)
			} else {
				out = vol / pl.Link(iv.Proc, ivs[j+1].Proc)
			}
		}
		var cycle float64
		if ev.goal.Model == pipeline.Overlap {
			cycle = comp
			if out > cycle {
				cycle = out
			}
			if in > cycle {
				cycle = in
			}
		} else {
			cycle = in + comp + out
		}
		if cycle > t {
			t = cycle
		}
		l += comp + out
		in = out
	}
	return t, l
}

// resumeEnergy recomputes s's energy sums from application from on.
func (ev *evaluator) resumeEnergy(s *scores, m *mapping.Mapping, from int) {
	e := s.energy[from]
	for a := from; a < len(m.Apps); a++ {
		s.energy[a] = e
		for _, iv := range m.Apps[a].Intervals {
			e += ev.power[iv.Proc][iv.Mode]
		}
	}
	s.energy[len(m.Apps)] = e
}

// score is the goal's value of the cached scores: +Inf when a bound is
// broken, else the objective.
func (ev *evaluator) score(s *scores) float64 {
	g := &ev.goal
	for a := range s.period {
		if g.PeriodBounds != nil && !fmath.LE(s.period[a], g.PeriodBounds[a]) {
			return math.Inf(1)
		}
		if g.LatencyBounds != nil && !fmath.LE(s.latency[a], g.LatencyBounds[a]) {
			return math.Inf(1)
		}
	}
	energy := s.energy[len(s.energy)-1]
	if g.EnergyBudget > 0 && !fmath.LE(energy, g.EnergyBudget) {
		return math.Inf(1)
	}
	switch g.Objective {
	case Period:
		return ev.weightedMax(s.period)
	case Latency:
		return ev.weightedMax(s.latency)
	default:
		return energy
	}
}

// weightedMax returns max_a W_a*xs[a], or 0 with no applications.
func (ev *evaluator) weightedMax(xs []float64) float64 {
	var v float64
	for a, x := range xs {
		if wx := ev.inst.Apps[a].EffectiveWeight() * x; wx > v {
			v = wx
		}
	}
	return v
}
