// Package core is the paper's contribution operationalized: a
// complexity-aware solver for multi-criteria mappings of concurrent
// pipelined applications. Given a problem instance, a mapping rule, a
// communication model and a criteria combination, it dispatches to
//
//   - the paper's polynomial algorithm when Tables 1-2 list the cell as
//     polynomial for the instance's platform class (Theorems 1, 3, 8, 12,
//     14-16, 18-19, 21, 23-24),
//   - the exhaustive exact solver when the cell is NP-hard but the search
//     space is small enough, and
//   - the heuristics of the conclusion's future-work programme otherwise,
//
// and reports which path was taken and whether the result is provably
// optimal.
package core

import (
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

// Criterion identifies the objective being minimized.
type Criterion int

const (
	// Period minimizes the weighted global period max_a W_a*T_a.
	Period Criterion = iota
	// Latency minimizes the weighted global latency max_a W_a*L_a.
	Latency
	// Energy minimizes the total power of enrolled processors. Per the
	// paper (Section 3.5), energy is only meaningful combined with a
	// period constraint.
	Energy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Period:
		return "period"
	case Latency:
		return "latency"
	case Energy:
		return "energy"
	}
	return fmt.Sprintf("Criterion(%d)", int(c))
}

// ParseCriterion is the inverse of String, shared by the cmd/ tools.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "period":
		return Period, nil
	case "latency":
		return Latency, nil
	case "energy":
		return Energy, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want period | latency | energy)", s)
}

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
	// period T_a <= PeriodBounds[a].
	PeriodBounds []float64
	// LatencyBounds, if non-nil, constrains each application's unweighted
	// latency L_a <= LatencyBounds[a].
	LatencyBounds []float64
	// EnergyBudget, if positive, constrains the total energy.
	EnergyBudget float64
	// ExactLimit caps the exhaustive fallback's search space (number of
	// mappings); 0 means 2,000,000. When exceeded, the heuristic is used.
	ExactLimit int64
	// Seed drives the heuristic fallback (deterministic per seed).
	Seed int64
	// HeurIters and HeurRestarts tune the heuristic fallback (defaults
	// 4000 and 3).
	HeurIters, HeurRestarts int
}

func (r Request) exactLimit() int64 {
	if r.ExactLimit <= 0 {
		return 2_000_000
	}
	return r.ExactLimit
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
	// ExactLimit) and the heuristic produced the mapping, so Value is only
	// an upper bound on the optimum. Degraded holds iff Method is
	// MethodHeuristic.
	Degraded bool
	// LowerBound is a provable lower bound on the constrained optimum,
	// populated only on degraded results so callers can report the bound
	// gap Value - LowerBound.
	LowerBound float64
	// Preempted reports that a wall-clock budget expired mid-solve and the
	// result came from the reduced-effort degraded path (plan.SolveCtx).
	// Preempted results depend on scheduler timing and are never memoized.
	Preempted bool
}

// Clone returns an independent deep copy of r, reflect.DeepEqual to r
// and laid out as Packed.Unpack lays out a result: one backing array for
// the intervals and one for the metric floats.
func (r Result) Clone() Result {
	return r.Pack().Unpack()
}

// ErrInfeasible is returned when no mapping satisfies the bounds.
var ErrInfeasible = errors.New("core: no mapping satisfies the bounds")

// ErrUnsupported is returned for criteria combinations the paper rules out
// (energy without a period constraint).
var ErrUnsupported = errors.New("core: unsupported criteria combination")

// Solve dispatches the request per Tables 1 and 2.
func Solve(inst *pipeline.Instance, req Request) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	return SolvePrepared(inst, inst.Platform.Classify(), req)
}

// SolvePrepared is Solve for callers that have already validated the
// instance and classified its platform — the compiled-plan layer
// (internal/plan) performs both once at compile time and then issues many
// queries. cls must be inst.Platform.Classify() and inst.Validate() must
// have returned nil; given that, SolvePrepared(inst, cls, req) is
// bit-identical to Solve(inst, req).
func SolvePrepared(inst *pipeline.Instance, cls pipeline.Class, req Request) (Result, error) {
	if err := checkBounds(inst, req); err != nil {
		return Result{}, err
	}
	switch req.Objective {
	case Period:
		return solvePeriod(inst, req, cls)
	case Latency:
		return solveLatency(inst, req, cls)
	case Energy:
		if req.PeriodBounds == nil {
			return Result{}, fmt.Errorf("%w: energy minimization requires period bounds (Section 3.5)", ErrUnsupported)
		}
		return solveEnergy(inst, req, cls)
	}
	return Result{}, fmt.Errorf("core: unknown objective %v", req.Objective)
}

func checkBounds(inst *pipeline.Instance, req Request) error {
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

func solvePeriod(inst *pipeline.Instance, req Request, cls pipeline.Class) (Result, error) {
	hasLat := req.LatencyBounds != nil
	hasEnergy := req.EnergyBudget > 0
	switch {
	case !hasLat && !hasEnergy:
		// Mono-criterion period (Table 1).
		if req.Rule == mapping.OneToOne && cls != pipeline.FullyHeterogeneous {
			m, v, err := onetoone.MinPeriodCommHom(inst, req.Model)
			return wrap(inst, req, m, v, MethodGreedyBinarySearch, true, err)
		}
		if req.Rule == mapping.Interval && cls == pipeline.FullyHomogeneous {
			m, v, err := interval.MinPeriodFullyHom(inst, req.Model)
			return wrap(inst, req, m, v, MethodDynProgAlloc, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinPeriod(inst, req.Rule, req.Model)
		})
	case hasLat && !hasEnergy:
		// Bi-criteria period/latency (Table 2): polynomial on fully
		// homogeneous platforms only.
		if cls == pipeline.FullyHomogeneous {
			if req.Rule == mapping.OneToOne {
				return trivialOneToOne(inst, req)
			}
			m, v, err := interval.MinPeriodGivenLatencyFullyHom(inst, req.Model, req.LatencyBounds)
			return wrap(inst, req, m, v, MethodDynProgAlloc, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinPeriodGivenLatency(inst, req.Rule, req.Model, req.LatencyBounds)
		})
	default:
		// Tri-criteria period under latency bounds and energy budget.
		lat := req.LatencyBounds
		if lat == nil {
			lat = infBounds(len(inst.Apps))
		}
		if cls == pipeline.FullyHomogeneous && inst.Platform.UniModal() && req.Rule == mapping.Interval {
			m, v, err := interval.MinPeriodGivenLatencyEnergyUniModal(inst, req.Model, lat, req.EnergyBudget)
			return wrap(inst, req, m, v, MethodUniModalBudget, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinPeriodGivenLatencyEnergy(inst, req.Rule, req.Model, lat, req.EnergyBudget)
		})
	}
}

func solveLatency(inst *pipeline.Instance, req Request, cls pipeline.Class) (Result, error) {
	hasPer := req.PeriodBounds != nil
	hasEnergy := req.EnergyBudget > 0
	switch {
	case !hasPer && !hasEnergy:
		// Mono-criterion latency (Table 1).
		if req.Rule == mapping.OneToOne && cls == pipeline.FullyHomogeneous {
			m, v, err := onetoone.MinLatencyFullyHom(inst)
			return wrap(inst, req, m, v, MethodTrivial, true, err)
		}
		if req.Rule == mapping.Interval && cls != pipeline.FullyHeterogeneous {
			m, v, err := interval.MinLatencyCommHom(inst)
			return wrap(inst, req, m, v, MethodGreedyBinarySearch, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinLatency(inst, req.Rule)
		})
	case hasPer && !hasEnergy:
		if cls == pipeline.FullyHomogeneous {
			if req.Rule == mapping.OneToOne {
				return trivialOneToOne(inst, req)
			}
			m, v, err := interval.MinLatencyGivenPeriodFullyHom(inst, req.Model, req.PeriodBounds)
			return wrap(inst, req, m, v, MethodDynProgAlloc, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinLatencyGivenPeriod(inst, req.Rule, req.Model, req.PeriodBounds)
		})
	default:
		per := req.PeriodBounds
		if per == nil {
			per = infBounds(len(inst.Apps))
		}
		if cls == pipeline.FullyHomogeneous && inst.Platform.UniModal() && req.Rule == mapping.Interval {
			m, v, err := interval.MinLatencyGivenPeriodEnergyUniModal(inst, req.Model, per, req.EnergyBudget)
			return wrap(inst, req, m, v, MethodUniModalBudget, true, err)
		}
		// Exact fallback: minimize latency under period bounds + budget.
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.Minimize(inst,
				exact.Options{Rule: req.Rule, Modes: exact.AllModes, Limit: req.exactLimit()},
				exact.Spec{Objective: exact.ObjLatency, Model: req.Model,
					PeriodBounds: per, EnergyBudget: req.EnergyBudget})
		})
	}
}

func solveEnergy(inst *pipeline.Instance, req Request, cls pipeline.Class) (Result, error) {
	hasLat := req.LatencyBounds != nil
	if !hasLat {
		// Bi-criteria period/energy (Table 2).
		if req.Rule == mapping.OneToOne && cls != pipeline.FullyHeterogeneous {
			m, v, err := matching.MinEnergyGivenPeriodCommHom(inst, req.Model, req.PeriodBounds)
			return wrap(inst, req, m, v, MethodMatching, true, err)
		}
		if req.Rule == mapping.Interval && cls == pipeline.FullyHomogeneous {
			m, v, err := interval.MinEnergyGivenPeriodFullyHom(inst, req.Model, req.PeriodBounds)
			return wrap(inst, req, m, v, MethodEnergyDP, true, err)
		}
		return fallback(inst, req, func() (exact.Solution, error) {
			return exact.MinEnergyGivenPeriod(inst, req.Rule, req.Model, req.PeriodBounds)
		})
	}
	// Tri-criteria energy under period and latency bounds: polynomial only
	// for uni-modal fully homogeneous platforms (Theorems 23-24); NP-hard
	// with multi-modal processors even there (Theorems 26-27).
	if cls == pipeline.FullyHomogeneous && inst.Platform.UniModal() && req.Rule == mapping.Interval {
		m, v, err := interval.MinEnergyGivenPeriodLatencyUniModal(inst, req.Model, req.PeriodBounds, req.LatencyBounds)
		return wrap(inst, req, m, v, MethodUniModalBudget, true, err)
	}
	return fallback(inst, req, func() (exact.Solution, error) {
		return exact.MinEnergyGivenPeriodLatency(inst, req.Rule, req.Model, req.PeriodBounds, req.LatencyBounds)
	})
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

// fallback tries the exhaustive solver within the search-space limit and
// falls back to the heuristic beyond it.
func fallback(inst *pipeline.Instance, req Request, solve func() (exact.Solution, error)) (Result, error) {
	if withinExactLimit(inst, req) {
		sol, err := solve()
		if errors.Is(err, exact.ErrInfeasible) {
			return Result{}, ErrInfeasible
		}
		if err == nil {
			return wrap(inst, req, sol.Mapping, sol.Value, MethodExact, true, nil)
		}
		if !errors.Is(err, exact.ErrSearchSpace) {
			return Result{}, err
		}
	}
	res, err := heuristicSolve(inst, req)
	if err != nil {
		return res, err
	}
	res.Degraded = true
	res.LowerBound = lowerBound(inst, req)
	return res, nil
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

// heuristicSolve runs the heuristic search on the request's goal: its
// objective, penalized to +Inf outside its bounds and budget.
func heuristicSolve(inst *pipeline.Instance, req Request) (Result, error) {
	rng := rand.New(rand.NewSource(req.Seed + 1))
	opt := heur.Options{Iters: req.HeurIters, Restarts: req.HeurRestarts}
	goal := heur.Goal{
		Objective:     heurCriterion[req.Objective],
		Model:         req.Model,
		PeriodBounds:  req.PeriodBounds,
		LatencyBounds: req.LatencyBounds,
		EnergyBudget:  req.EnergyBudget,
	}
	m, v, err := heur.Minimize(rng, inst, req.Rule, goal, opt)
	if err != nil {
		return Result{}, err
	}
	if math.IsInf(v, 1) {
		return Result{}, ErrInfeasible
	}
	return wrap(inst, req, m, v, MethodHeuristic, false, nil)
}

// heurCriterion maps each criterion to the heuristic's.
var heurCriterion = [...]heur.Criterion{Period: heur.Period, Latency: heur.Latency, Energy: heur.Energy}

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

func infBounds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	return out
}
