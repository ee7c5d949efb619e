// Package exact provides exact solvers over one-to-one and interval
// mappings. They are exponential — exactly what the paper's NP-completeness
// results predict for the hard problem variants — and double as the
// optimality oracle against which every polynomial algorithm and heuristic
// in this repository is tested.
//
// Two engines coexist: Enumerate is the blind visitor-pattern walk over the
// complete mapping space (the reference semantics — CountMappings and the
// differential oracle are defined against it), while Minimize is a
// branch-and-bound search that reaches the same optima bit for bit through
// incremental evaluation, bound pruning and symmetry breaking (see bnb.go).
// Minimize takes its problem as a pipeline.Goal, the statement the
// dispatcher and the heuristic share; Options.NoPrune turns the cuts off
// so the two engines can be compared directly.
package exact

import (
	"errors"
	"sync"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// ErrSearchSpace is returned when a search exceeds its leaf limit or its
// work budget: the instance is too large for the exact solver.
var ErrSearchSpace = errors.New("exact: search space exceeds the configured limit")

// ErrInfeasible is returned when no mapping satisfies the given bounds.
var ErrInfeasible = errors.New("exact: no mapping satisfies the bounds")

// ModePolicy restricts which execution modes are enumerated.
type ModePolicy int

const (
	// AllModes enumerates every DVFS mode (needed whenever energy is among
	// the criteria).
	AllModes ModePolicy = iota
	// FastestOnly enumerates only each processor's highest speed: without
	// an energy criterion, running faster can only improve period and
	// latency (Section 2), so the restriction is lossless.
	FastestOnly
)

// Options configures the enumeration.
type Options struct {
	// Rule selects one-to-one or interval mappings.
	Rule mapping.Rule
	// Modes selects the mode enumeration policy.
	Modes ModePolicy
	// Limit bounds the number of complete mappings visited; 0 means the
	// default of 20 million.
	Limit int64
	// Budget bounds the work of Minimize: the number of (interval,
	// processor, mode) placements it tries, counted before each is vetted
	// against the bounds and the incumbent (SearchStats.Tried). It is a
	// count, never a clock, so a search spends the same budget the same
	// way on every run. 0 means unbounded; Enumerate and CountMappings
	// ignore it.
	Budget int64
	// NoPrune makes Minimize visit the entire mapping space like Enumerate
	// does — no bound pruning, no symmetry breaking. This is the reference
	// path the differential harness compares the branch-and-bound search
	// against; it has no effect on Enumerate or CountMappings, which never
	// prune.
	NoPrune bool
}

func (o Options) limit() int64 {
	if o.Limit <= 0 {
		return 20_000_000
	}
	return o.Limit
}

// Enumerate visits every valid mapping of inst under the options. The
// *mapping.Mapping passed to visit is reused across calls; visit must clone
// it if it escapes. Returns ErrSearchSpace when the limit is hit.
func Enumerate(inst *pipeline.Instance, opt Options, visit func(m *mapping.Mapping)) error {
	e := enumPool.Get().(*enumerator)
	p := inst.Platform.NumProcessors()
	e.inst, e.opt, e.visit = inst, opt, visit
	e.used = resizeBools(e.used, p)
	for u := range e.used {
		e.used[u] = false
	}
	e.free = p
	e.m.Apps = resizeAppMappings(e.m.Apps, len(inst.Apps))
	for a := range e.m.Apps {
		e.m.Apps[a].Intervals = e.m.Apps[a].Intervals[:0]
	}
	e.left = opt.limit()
	err := e.app(0)
	e.inst, e.visit = nil, nil // do not retain while pooled
	enumPool.Put(e)
	return err
}

var enumPool = sync.Pool{New: func() any { return new(enumerator) }}

type enumerator struct {
	inst  *pipeline.Instance
	opt   Options
	used  []bool
	free  int // count of false entries in used, maintained incrementally
	m     mapping.Mapping
	visit func(m *mapping.Mapping)
	left  int64
}

// app enumerates the mapping of applications a..A-1 given the processors
// already consumed by applications 0..a-1.
func (e *enumerator) app(a int) error {
	if a == len(e.inst.Apps) {
		e.left--
		if e.left < 0 {
			return ErrSearchSpace
		}
		e.visit(&e.m)
		return nil
	}
	return e.intervals(a, 0)
}

// intervals extends application a's partition from stage `from` onward.
func (e *enumerator) intervals(a, from int) error {
	app := &e.inst.Apps[a]
	n := app.NumStages()
	if from == n {
		return e.app(a + 1)
	}
	// Remaining applications each need at least one processor.
	if e.free <= len(e.inst.Apps)-a-1 {
		return nil // no processor available for this interval
	}
	hi := n - 1
	if e.opt.Rule == mapping.OneToOne {
		hi = from
	}
	for to := from; to <= hi; to++ {
		for u := 0; u < len(e.used); u++ {
			if e.used[u] {
				continue
			}
			e.used[u] = true
			e.free--
			modes := e.inst.Platform.Processors[u].NumModes()
			lo := 0
			if e.opt.Modes == FastestOnly {
				lo = modes - 1
			}
			for mode := lo; mode < modes; mode++ {
				e.m.Apps[a].Intervals = append(e.m.Apps[a].Intervals, mapping.PlacedInterval{
					From: from, To: to, Proc: u, Mode: mode,
				})
				if err := e.intervals(a, to+1); err != nil {
					return err
				}
				e.m.Apps[a].Intervals = e.m.Apps[a].Intervals[:len(e.m.Apps[a].Intervals)-1]
			}
			e.used[u] = false
			e.free++
		}
	}
	return nil
}

// Solution is an optimal mapping found by an exact solver, with its value
// and the search-effort counters of the run that produced it.
type Solution struct {
	Mapping mapping.Mapping
	Value   float64
	Stats   SearchStats
}

// Point is one (period, latency, energy) value vector with a witness
// mapping.
type Point struct {
	Period, Latency, Energy float64
	Mapping                 mapping.Mapping
}

// Dominates reports whether p is at least as good as q on all three
// criteria and strictly better on at least one.
func (p Point) Dominates(q Point) bool {
	le := fmath.LE(p.Period, q.Period) && fmath.LE(p.Latency, q.Latency) && fmath.LE(p.Energy, q.Energy)
	lt := fmath.LT(p.Period, q.Period) || fmath.LT(p.Latency, q.Latency) || fmath.LT(p.Energy, q.Energy)
	return le && lt
}

// ParetoFront enumerates every mapping and returns the non-dominated
// (period, latency, energy) points, sorted by period. This is the full
// trade-off surface discussed in the introduction (laptop and server
// problems). It counts the mappings first and returns ErrSearchSpace,
// without enumerating, when there are more than the default limit.
func ParetoFront(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) ([]Point, error) {
	opt := Options{Rule: rule, Modes: AllModes}
	if _, err := CountMappings(inst, opt); err != nil {
		return nil, err
	}
	var front []Point
	err := Enumerate(inst, opt, func(m *mapping.Mapping) {
		// Three scalar evaluations, not mapping.Evaluate: the full metrics
		// carry per-app slices that would allocate at every leaf.
		cand := Point{
			Period:  mapping.Period(inst, m, model),
			Latency: mapping.Latency(inst, m),
			Energy:  mapping.Energy(inst, m),
		}
		for _, q := range front {
			if q.Dominates(cand) || (fmath.EQ(q.Period, cand.Period) && fmath.EQ(q.Latency, cand.Latency) && fmath.EQ(q.Energy, cand.Energy)) {
				return
			}
		}
		cand.Mapping = m.Clone()
		keep := front[:0]
		for _, q := range front {
			if !cand.Dominates(q) {
				keep = append(keep, q)
			}
		}
		front = append(keep, cand)
	})
	if err != nil {
		return nil, err
	}
	sortPoints(front)
	return front, nil
}

func sortPoints(ps []Point) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func less(a, b Point) bool {
	//lint:allow floatcmp sort comparator needs an exact total order (tolerant EQ is not transitive)
	if a.Period != b.Period {
		return a.Period < b.Period
	}
	//lint:allow floatcmp sort comparator needs an exact total order (tolerant EQ is not transitive)
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Energy < b.Energy
}
