// Package core is the paper's contribution operationalized: a
// complexity-aware solver for multi-criteria mappings of concurrent
// pipelined applications. Given a problem instance, a mapping rule, a
// communication model and a criteria combination, it dispatches to
//
//   - the paper's polynomial algorithm when Tables 1-2 list the cell as
//     polynomial for the instance's platform class (Theorems 1, 3, 8, 12,
//     14-16, 18-19, 21, 23-24),
//   - the exact branch-and-bound search when the cell is NP-hard: run to
//     the end when the mapping count fits Request.ExactLimit, and under a
//     fixed work budget otherwise, where most searches still end and so
//     are just as exact, and
//   - the heuristics of the conclusion's future-work programme when that
//     budget runs out: by default one simulated-annealing run from the
//     best mapping the search found, or three cold ones when it found
//     none,
//
// and reports which path was taken and whether the result is provably
// optimal. Every bound a request carries constrains the answer, whatever
// the objective: a polynomial cell answers only when its optimum also
// meets the bounds on the objective's own criterion, and the search runs
// otherwise. ExactProblem is the one statement of a request as a
// branch-and-bound problem. Only a completed search, or a polynomial
// optimum over an energy budget, answers ErrInfeasible; a budget spent
// without any mapping found answers ErrUnresolved.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/algo/exact"
	"repro/internal/algo/heur"
	"repro/internal/algo/interval"
	"repro/internal/algo/matching"
	"repro/internal/algo/onetoone"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// Criterion identifies the objective being minimized; it is
// pipeline.Criterion, the criterion every solver shares.
type Criterion = pipeline.Criterion

// The three criteria of pipeline.Criterion.
const (
	Period  = pipeline.Period
	Latency = pipeline.Latency
	Energy  = pipeline.Energy
)

// Method records how a solution was obtained.
type Method string

const (
	MethodGreedyBinarySearch Method = "binary search + greedy assignment (Thm 1/12)"
	MethodDynProgAlloc       Method = "chain DP + Algorithm 2 (Thm 3/15/16)"
	MethodEnergyDP           Method = "energy DP + allocation DP (Thm 18/21)"
	MethodMatching           Method = "minimum weight bipartite matching (Thm 19)"
	MethodTrivial            Method = "all mappings equivalent (Thm 8/14/23)"
	MethodUniModalBudget     Method = "energy-capped DP (Thm 23/24)"
	MethodExact              Method = "exhaustive search (NP-hard cell)"
	MethodHeuristic          Method = "greedy + simulated annealing heuristic"
)

// Request describes one optimization problem.
type Request struct {
	// Rule selects one-to-one or interval mappings.
	Rule mapping.Rule
	// Model selects the communication model.
	Model pipeline.CommModel
	// Objective is the criterion to minimize.
	Objective Criterion
	// PeriodBounds, if non-nil, constrains each application's unweighted
	// period T_a <= PeriodBounds[a], whatever the objective: with the
	// period objective too.
	PeriodBounds []float64
	// LatencyBounds, if non-nil, constrains each application's unweighted
	// latency L_a <= LatencyBounds[a], whatever the objective.
	LatencyBounds []float64
	// EnergyBudget, if positive, constrains the total energy, whatever the
	// objective.
	EnergyBudget float64
	// ExactLimit is the largest mapping count the exact search runs to the
	// end on; 0 means 2,000,000. Past it, the search gets a work budget of
	// min(ExactLimit, 10,000) placements, and the heuristic answers only
	// when that runs out. ExactLimit 1 thus forces the heuristic on any
	// space of more than one mapping.
	ExactLimit int64
	// Seed drives the heuristic fallback (deterministic per seed).
	Seed int64
	// HeurIters and HeurRestarts tune the heuristic fallback: annealing
	// steps per restart (default 4000) and restarts. When the budgeted
	// search leaves a mapping, restart 0 anneals from it and the rest are
	// cold, and the default is 1 restart; otherwise every restart is cold
	// and the default is 3.
	HeurIters, HeurRestarts int
}

func (r Request) exactLimit() int64 {
	if r.ExactLimit <= 0 {
		return 2_000_000
	}
	return r.ExactLimit
}

// Clamp returns r with its effort lowered to a ceiling of work search
// steps; work <= 0 means no ceiling and returns r unchanged. The exact
// limit becomes at most work, so a search past it tries at most work
// placements, and the annealing steps of every restart together (3
// restarts when HeurRestarts is unset) at most work: restarts first, then
// HeurIters, which never drops below one step. The answer to the clamped
// request is a pure function of the request and the ceiling, as any
// other answer is of its request.
func (r Request) Clamp(work int64) Request {
	if work <= 0 {
		return r
	}
	if r.exactLimit() > work {
		r.ExactLimit = work
	}
	restarts := int64(r.HeurRestarts)
	if restarts <= 0 {
		restarts = 3
	}
	if restarts > work {
		restarts = work
		r.HeurRestarts = int(work)
	}
	iters := int64(r.HeurIters)
	if iters <= 0 {
		iters = 4000
	}
	if iters > work/restarts {
		r.HeurIters = int(work / restarts)
	}
	return r
}

// Result is a solved mapping with provenance.
type Result struct {
	Mapping mapping.Mapping
	// Value is the achieved objective value.
	Value float64
	// Metrics evaluates all criteria of the mapping.
	Metrics mapping.Metrics
	// Method tells which algorithm produced the mapping.
	Method Method
	// Optimal reports whether the result is provably optimal (polynomial
	// theorem algorithms and exhaustive search) as opposed to heuristic.
	Optimal bool
	// Degraded reports that the exact path was abandoned (search space over
	// ExactLimit and the search's work budget spent), so Value is only an
	// upper bound on the optimum: the better of the annealer's mapping and
	// the search's incumbent, which is also where the annealer starts.
	// Degraded holds iff Method is MethodHeuristic.
	Degraded bool
	// LowerBound is a provable lower bound on the constrained optimum,
	// populated only on degraded results so callers can report the bound
	// gap Value - LowerBound.
	LowerBound float64
}

// Clone returns an independent deep copy of r, reflect.DeepEqual to r
// and laid out as Packed.Unpack lays out a result: one backing array for
// the intervals and one for the metric floats.
func (r Result) Clone() Result {
	return r.Pack().Unpack()
}

// ErrInfeasible is returned when no mapping satisfies the bounds.
var ErrInfeasible = errors.New("core: no mapping satisfies the bounds")

// ErrUnresolved is returned when an NP-hard problem beyond the exact
// limit spent its search budget without finding a mapping: neither the
// budgeted branch and bound nor the annealer found one, so no mapping is
// known, and none is proven not to exist. The answer is deterministic per
// request (seed included); a larger ExactLimit, one that the mapping count
// fits, runs the search to the end and settles it.
var ErrUnresolved = errors.New("core: search budget spent without finding a mapping (infeasibility not proven)")

// ErrUnsupported is returned for criteria combinations the paper rules out
// (energy without a period constraint).
var ErrUnsupported = errors.New("core: unsupported criteria combination")

// Solve dispatches the request per Tables 1 and 2.
func Solve(inst *pipeline.Instance, req Request) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	return SolvePrepared(context.Background(), inst, inst.Platform.Classify(), req)
}

// SolvePrepared is Solve for callers that have already validated the
// instance and classified its platform — the compiled-plan layer
// (internal/plan) performs both once at compile time and then issues many
// queries. cls must be inst.Platform.Classify() and inst.Validate() must
// have returned nil; given that, SolvePrepared(ctx, inst, cls, req) is
// bit-identical to Solve(inst, req) unless ctx ends during the search of
// an NP-hard cell (polynomial cells never stop), which then answers the
// context's error.
func SolvePrepared(ctx context.Context, inst *pipeline.Instance, cls pipeline.Class, req Request) (Result, error) {
	if err := CheckBounds(inst, req); err != nil {
		return Result{}, err
	}
	switch req.Objective {
	case Period, Latency:
	case Energy:
		if req.PeriodBounds == nil {
			return Result{}, fmt.Errorf("%w: energy minimization requires period bounds (Section 3.5)", ErrUnsupported)
		}
	default:
		return Result{}, fmt.Errorf("core: unknown objective %v", req.Objective)
	}
	res, poly, err := polynomial(inst, cls, req)
	switch {
	case !poly:
	case err != nil || meetsOwnBound(req, &res.Metrics):
		// The cell's optimum meets every bound, so it is the constrained
		// optimum too.
		return res, err
	case req.Objective == Energy:
		// The cell's optimum is the least energy under the other bounds,
		// so no mapping meets a smaller budget.
		return Result{}, ErrInfeasible
	}
	return fallback(ctx, inst, req)
}

// CheckBounds rejects a bound array that does not hold one bound per
// application of inst. SolvePrepared runs it; a front end runs it to
// refuse such a request as malformed before it reaches a solver.
func CheckBounds(inst *pipeline.Instance, req Request) error {
	if req.PeriodBounds != nil && len(req.PeriodBounds) != len(inst.Apps) {
		return fmt.Errorf("core: %d period bounds for %d applications", len(req.PeriodBounds), len(inst.Apps))
	}
	if req.LatencyBounds != nil && len(req.LatencyBounds) != len(inst.Apps) {
		return fmt.Errorf("core: %d latency bounds for %d applications", len(req.LatencyBounds), len(inst.Apps))
	}
	return nil
}

// UniformBounds builds a per-application bound array from a single global
// weighted threshold X: application a receives X / W_a.
func UniformBounds(inst *pipeline.Instance, x float64) []float64 {
	out := make([]float64, len(inst.Apps))
	for a := range out {
		out[a] = x / inst.Apps[a].EffectiveWeight()
	}
	return out
}

// StretchWeights sets each application's weight to 1/X*_a where X*_a is the
// objective the application achieves alone on the platform, turning the
// weighted objective into the maximum stretch of Section 3.4. It returns a
// modified clone of the instance.
func StretchWeights(inst *pipeline.Instance, req Request) (pipeline.Instance, error) {
	alone := inst.Clone()
	for a := range alone.Apps {
		solo := pipeline.Instance{
			Apps:     []pipeline.Application{inst.Apps[a].Clone()},
			Platform: inst.Platform.Clone(),
			Energy:   inst.Energy,
		}
		solo.Apps[0].Weight = 1
		solo.Platform.InBandwidth = [][]float64{inst.Platform.InBandwidth[a]}
		solo.Platform.OutBandwidth = [][]float64{inst.Platform.OutBandwidth[a]}
		res, err := Solve(&solo, Request{
			Rule: req.Rule, Model: req.Model, Objective: req.Objective,
			ExactLimit: req.ExactLimit, Seed: req.Seed,
			HeurIters: req.HeurIters, HeurRestarts: req.HeurRestarts,
		})
		if err != nil {
			return pipeline.Instance{}, fmt.Errorf("core: solo solve for application %d: %w", a, err)
		}
		if res.Value <= 0 {
			return pipeline.Instance{}, fmt.Errorf("core: application %d has non-positive solo objective", a)
		}
		alone.Apps[a].Weight = 1 / res.Value
	}
	return alone, nil
}

// polynomial answers req with the polynomial algorithm of its Table 1-2
// cell on a platform of class cls; poly is false when the cell is
// NP-hard. A bound on the objective's own criterion takes no part in
// choosing the cell: the cell is the one of the other criteria.
func polynomial(inst *pipeline.Instance, cls pipeline.Class, req Request) (res Result, poly bool, err error) {
	var (
		m      mapping.Mapping
		v      float64
		method Method // stays empty on an NP-hard cell
	)
	hasPer, hasLat, hasEnergy := req.PeriodBounds != nil, req.LatencyBounds != nil, req.EnergyBudget > 0
	oneToOne := req.Rule == mapping.OneToOne
	fullyHom := cls == pipeline.FullyHomogeneous
	commHom := cls != pipeline.FullyHeterogeneous
	// Tri-criteria cells are polynomial only for interval mappings on
	// uni-modal fully homogeneous platforms (Theorems 23-24); with
	// multi-modal processors they are NP-hard even there (Theorems 26-27).
	uniModal := fullyHom && !oneToOne && inst.Platform.UniModal()
	switch req.Objective {
	case Period:
		switch {
		case hasEnergy:
			if uniModal {
				m, v, err = interval.MinPeriodGivenLatencyEnergyUniModal(inst, req.Model, orInf(req.LatencyBounds, len(inst.Apps)), req.EnergyBudget)
				method = MethodUniModalBudget
			}
		case hasLat && fullyHom && oneToOne:
			res, err = trivialOneToOne(inst, req)
			return res, true, err
		case hasLat && fullyHom:
			m, v, err = interval.MinPeriodGivenLatencyFullyHom(inst, req.Model, req.LatencyBounds)
			method = MethodDynProgAlloc
		case hasLat: // NP-hard
		case oneToOne && commHom:
			m, v, err = onetoone.MinPeriodCommHom(inst, req.Model)
			method = MethodGreedyBinarySearch
		case !oneToOne && fullyHom:
			m, v, err = interval.MinPeriodFullyHom(inst, req.Model)
			method = MethodDynProgAlloc
		}
	case Latency:
		switch {
		case hasEnergy:
			if uniModal {
				m, v, err = interval.MinLatencyGivenPeriodEnergyUniModal(inst, req.Model, orInf(req.PeriodBounds, len(inst.Apps)), req.EnergyBudget)
				method = MethodUniModalBudget
			}
		case hasPer && fullyHom && oneToOne:
			res, err = trivialOneToOne(inst, req)
			return res, true, err
		case hasPer && fullyHom:
			m, v, err = interval.MinLatencyGivenPeriodFullyHom(inst, req.Model, req.PeriodBounds)
			method = MethodDynProgAlloc
		case hasPer: // NP-hard
		case oneToOne && fullyHom:
			m, v, err = onetoone.MinLatencyFullyHom(inst)
			method = MethodTrivial
		case !oneToOne && commHom:
			m, v, err = interval.MinLatencyCommHom(inst)
			method = MethodGreedyBinarySearch
		}
	case Energy:
		switch {
		case hasLat:
			if uniModal {
				m, v, err = interval.MinEnergyGivenPeriodLatencyUniModal(inst, req.Model, req.PeriodBounds, req.LatencyBounds)
				method = MethodUniModalBudget
			}
		case oneToOne && commHom:
			m, v, err = matching.MinEnergyGivenPeriodCommHom(inst, req.Model, req.PeriodBounds)
			method = MethodMatching
		case !oneToOne && fullyHom:
			m, v, err = interval.MinEnergyGivenPeriodFullyHom(inst, req.Model, req.PeriodBounds)
			method = MethodEnergyDP
		}
	}
	if method == "" {
		return Result{}, false, nil
	}
	res, err = wrap(inst, req, m, v, method, true, err)
	return res, true, err
}

// meetsOwnBound reports whether mt meets the request's bounds on its
// objective's own criterion: the period bounds when it minimizes the
// period, the latency bounds for latency, the energy budget for energy.
func meetsOwnBound(req Request, mt *mapping.Metrics) bool {
	var bounds, got []float64
	switch req.Objective {
	case Period:
		bounds, got = req.PeriodBounds, mt.AppPeriods
	case Latency:
		bounds, got = req.LatencyBounds, mt.AppLatencies
	default:
		return req.EnergyBudget <= 0 || fmath.LE(mt.Energy, req.EnergyBudget)
	}
	for a := range bounds {
		if !fmath.LE(got[a], bounds[a]) {
			return false
		}
	}
	return true
}

// trivialOneToOne handles bounded problems on fully homogeneous platforms
// under the one-to-one rule: all mappings are equivalent (Theorem 14), so
// build one, check the bounds, and report the requested criterion.
func trivialOneToOne(inst *pipeline.Instance, req Request) (Result, error) {
	m, _, err := onetoone.MinLatencyFullyHom(inst)
	if err != nil {
		return Result{}, err
	}
	mt := mapping.Evaluate(inst, &m, req.Model)
	for a := range inst.Apps {
		if req.PeriodBounds != nil && !fmath.LE(mt.AppPeriods[a], req.PeriodBounds[a]) {
			return Result{}, ErrInfeasible
		}
		if req.LatencyBounds != nil && !fmath.LE(mt.AppLatencies[a], req.LatencyBounds[a]) {
			return Result{}, ErrInfeasible
		}
	}
	if req.EnergyBudget > 0 && !fmath.LE(mt.Energy, req.EnergyBudget) {
		return Result{}, ErrInfeasible
	}
	v := mt.Period
	if req.Objective == Latency {
		v = mt.Latency
	}
	return Result{Mapping: m, Value: v, Metrics: mt, Method: MethodTrivial, Optimal: true}, nil
}

// exactWork is the branch-and-bound budget, in placements tried
// (exact.Options.Budget), on a problem whose mapping count exceeds the
// exact limit. It is a constant, chosen from the cold-solve benchmark
// (3k, 10k, 30k and 100k were tried): about two thirds of such problems at
// the benchmark's sizes end within it, in 39 µs at the median, and a
// search that runs out adds 0.65 ms at the median and 1.3 ms at most
// before the annealer starts (2-vCPU x86 host).
const exactWork = 10_000

// ExactProblem states req as a branch-and-bound problem: its rule, every
// mode when energy is the objective or has a budget and only the fastest
// otherwise (running faster never worsens a period or a latency), and its
// goal. It is the one statement of a request's exact search: the
// dispatcher's NP-hard cells run it, and the oracles check against it.
// req.Objective must be Period, Latency or Energy.
func ExactProblem(req Request) (exact.Options, pipeline.Goal) {
	modes := exact.FastestOnly
	if req.Objective == Energy || req.EnergyBudget > 0 {
		modes = exact.AllModes
	}
	return exact.Options{Rule: req.Rule, Modes: modes}, req.goal()
}

// goal is the problem req states, as every solver takes it.
func (r Request) goal() pipeline.Goal {
	return pipeline.Goal{
		Objective:     r.Objective,
		Model:         r.Model,
		PeriodBounds:  r.PeriodBounds,
		LatencyBounds: r.LatencyBounds,
		EnergyBudget:  r.EnergyBudget,
	}
}

// fallback answers a request the polynomial algorithms do not: an
// NP-hard cell, or a polynomial cell whose optimum breaks a bound on its
// own criterion. Within the exact limit it runs the branch-and-bound
// search to the end. Beyond it, the search gets a work budget of
// min(ExactLimit, exactWork) placements: a search that ends within it is
// just as exact, and one that runs out hands its incumbent, if any, to
// the annealer as the starting mapping. The answer is then the better of
// the annealer's mapping and the search's incumbent, tagged Degraded.
func fallback(ctx context.Context, inst *pipeline.Instance, req Request) (Result, error) {
	opt, goal := ExactProblem(req)
	if !withinExactLimit(inst, req) {
		opt.Budget = min(req.exactLimit(), exactWork)
	}
	sol, err := exact.Minimize(ctx, inst, opt, goal)
	switch {
	case err == nil:
		return wrap(inst, req, sol.Mapping, sol.Value, MethodExact, true, nil)
	case errors.Is(err, exact.ErrInfeasible):
		return Result{}, ErrInfeasible
	case !errors.Is(err, exact.ErrSearchSpace):
		return Result{}, err
	}
	// A mapping the search found is never lost: restart 0 of the annealer
	// starts from it, and then one restart is the default (cold restarts
	// rarely beat it), and it answers when the annealer found none or a
	// worse one.
	hopt := heur.Options{Iters: req.HeurIters, Restarts: req.HeurRestarts, Start: sol.Mapping}
	if len(sol.Mapping.Apps) > 0 && hopt.Restarts <= 0 {
		hopt.Restarts = 1
	}
	m, v, err := heur.Minimize(ctx, rand.New(rand.NewSource(req.Seed+1)), inst, req.Rule, goal, hopt)
	if err != nil {
		return Result{}, err
	}
	if len(sol.Mapping.Apps) > 0 && (math.IsInf(v, 1) || fmath.LT(sol.Value, v)) {
		m, v = sol.Mapping, sol.Value
	}
	if math.IsInf(v, 1) {
		return Result{}, ErrUnresolved
	}
	res, err := wrap(inst, req, m, v, MethodHeuristic, false, nil)
	res.Degraded = true
	res.LowerBound = lowerBound(inst, req)
	return res, err
}

// lowerBound computes a cheap provable lower bound on the constrained
// optimum, attached to degraded (heuristic) results so callers can report
// the bound gap. Constraints only shrink the feasible set, so a bound on
// the unconstrained optimum is also valid for the constrained one.
func lowerBound(inst *pipeline.Instance, req Request) float64 {
	maxSpeed := 0.0
	for u := range inst.Platform.Processors {
		if s := inst.Platform.Processors[u].MaxSpeed(); s > maxSpeed {
			maxSpeed = s
		}
	}
	switch req.Objective {
	case Period:
		// Each application's heaviest stage runs somewhere, so some
		// processor's cycle time is at least its work at the fastest
		// speed, and the period is the max cycle time (Equations 3-4).
		best := 0.0
		for a := range inst.Apps {
			heaviest := 0.0
			for _, st := range inst.Apps[a].Stages {
				if st.Work > heaviest {
					heaviest = st.Work
				}
			}
			if lb := inst.Apps[a].EffectiveWeight() * heaviest / maxSpeed; lb > best {
				best = lb
			}
		}
		return best
	case Latency:
		// Every stage executes once per data set, so each application's
		// latency is at least its total work at the fastest speed.
		best := 0.0
		for a := range inst.Apps {
			if lb := inst.Apps[a].EffectiveWeight() * inst.Apps[a].TotalWork() / maxSpeed; lb > best {
				best = lb
			}
		}
		return best
	default: // Energy
		// Processors are never shared across applications (nor across
		// stages under one-to-one), so at least one processor per
		// application (per stage under one-to-one) is enrolled, each
		// burning at least the cheapest (processor, mode) power.
		minPower := math.Inf(1)
		for u := range inst.Platform.Processors {
			if p := inst.Energy.Power(inst.Platform.Processors[u].MinSpeed()); p < minPower {
				minPower = p
			}
		}
		n := len(inst.Apps)
		if req.Rule == mapping.OneToOne {
			n = 0
			for a := range inst.Apps {
				n += inst.Apps[a].NumStages()
			}
		}
		return float64(n) * minPower
	}
}

// withinExactLimit estimates whether exhaustive search fits the budget by
// counting mappings up to the limit.
func withinExactLimit(inst *pipeline.Instance, req Request) bool {
	_, err := exact.CountMappings(inst, exact.Options{Rule: req.Rule, Modes: exact.AllModes, Limit: req.exactLimit()})
	return err == nil
}

func wrap(inst *pipeline.Instance, req Request, m mapping.Mapping, v float64, method Method, optimal bool, err error) (Result, error) {
	if err != nil {
		if errors.Is(err, interval.ErrInfeasible) || errors.Is(err, matching.ErrInfeasible) {
			return Result{}, ErrInfeasible
		}
		if errors.Is(err, onetoone.ErrWrongPlatform) || errors.Is(err, matching.ErrWrongPlatform) || errors.Is(err, interval.ErrWrongPlatform) {
			// The dispatcher guarantees each theorem algorithm's platform
			// class precondition, so a surviving precondition failure means
			// the platform shape admits no mapping at all under the rule
			// (one-to-one with fewer processors than stages, interval with
			// fewer processors than applications). That is infeasibility,
			// and classifying it as such lets callers like the Pareto
			// sweeps distinguish "nothing achievable" from a broken query.
			return Result{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return Result{}, err
	}
	return Result{
		Mapping: m,
		Value:   v,
		Metrics: mapping.Evaluate(inst, &m, req.Model),
		Method:  method,
		Optimal: optimal,
	}, nil
}

// orInf returns bounds, or n unconstraining +Inf bounds when it is nil.
func orInf(bounds []float64, n int) []float64 {
	if bounds != nil {
		return bounds
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}
