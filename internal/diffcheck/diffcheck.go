// Package diffcheck is the differential verification harness: it validates
// the complexity-aware solver dispatcher (internal/core) against two
// independent oracles on randomly generated instances (internal/gen).
//
// For every scenario it checks five properties, mirroring how the KR-Benes
// line of work validates constructions by exhaustive comparison against the
// classical baseline:
//
//  1. Exactness. Whatever path the dispatcher took — a polynomial theorem
//     algorithm or the exhaustive fallback — a result flagged Optimal must
//     equal the brute-force optimum bit-for-bit (within the float tolerance
//     of internal/fmath), and the solver and brute force must agree on
//     feasibility.
//  2. Consistency. The returned mapping must validate under the request's
//     rule, its reported metrics must equal a fresh analytic evaluation,
//     the achieved objective must equal the reported value, every requested
//     bound must hold, and the discrete-event simulator must measure
//     exactly the analytic period and latency (sim.Verify).
//  3. Heuristic soundness. A heuristic result can never beat the exact
//     optimum: forcing the heuristic path on the same instance must produce
//     a value bounded below by the brute-force optimum, and its mapping
//     must pass the same consistency replay.
//  4. Plan equivalence. Compiling the scenario's instance once
//     (internal/plan) and replaying a battery of queries against the plan —
//     the scenario's own request plus a derived one with a different
//     objective, issued in an order that varies per scenario and each
//     repeated to exercise the memo — must reproduce fresh one-shot
//     core.Solve results bit-for-bit: same value, metrics, method,
//     optimality flag and mapping, or the same error.
//  5. Pruning equivalence. The branch-and-bound exact search
//     (exact.Minimize) with its cuts and symmetry breaking enabled must
//     agree bit-for-bit with the NoPrune reference walk of the entire
//     space on the scenario's own problem: identical optimal value (exact
//     float bits, not a tolerance) and identical feasibility verdict,
//     with error strings compared verbatim. Skipped only when either side
//     overruns the search-space limit.
//  6. Degraded-mode soundness. A result must carry Degraded exactly when
//     the exact path was abandoned for the heuristic (Method ==
//     MethodHeuristic, including forced budget-capped solves), and a
//     degraded result must publish a provable lower bound: LowerBound <=
//     its own value and LowerBound <= the brute-force optimum whenever
//     the oracle is available — graceful degradation, never silent.
//
// Check runs one scenario; Run fans a whole corpus out over a worker pool
// and aggregates a Summary. Both are deterministic per (seed, n).
package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/sim"
)

// The oracle's settings.
const (
	// oracleLimit caps the brute-force enumeration per scenario; above it
	// the value cross-check is skipped (the consistency replay still
	// runs).
	oracleLimit = 800_000
	// simTol is the simulator verification tolerance.
	simTol = 1e-9
	// heurEvery forces the heuristic path and checks its lower bound on
	// every heurEvery-th scenario.
	heurEvery = 4
	// heurIters and heurRestarts tune the forced heuristic run: enough to
	// find a feasible point on oracle-sized instances while keeping a
	// large corpus fast.
	heurIters, heurRestarts = 300, 1
)

// Outcome reports one scenario's differential check.
type Outcome struct {
	Scenario gen.Scenario
	// Feasible reports whether the problem has any feasible mapping.
	Feasible bool
	// Method, Optimal and Value mirror the solver result (feasible only).
	Method  core.Method
	Optimal bool
	Value   float64
	// OracleValue is the brute-force optimum (NaN when skipped or
	// infeasible); OracleSkipped reports a search space over the limit.
	OracleValue   float64
	OracleSkipped bool
	// HeurChecked reports that the forced-heuristic lower-bound check ran;
	// HeurValue is its achieved value (NaN when it found nothing) and
	// HeurMissed that it failed to find any feasible mapping even though
	// one exists (allowed: the heuristic is incomplete).
	HeurChecked bool
	HeurValue   float64
	HeurMissed  bool
	// PlanQueries counts the plan-equivalence queries replayed against the
	// scenario's compiled plan, each asserted bit-identical to a fresh
	// one-shot solve.
	PlanQueries int
	// Unresolved reports that the solver spent its search budget without
	// finding a mapping (core.ErrUnresolved).
	Unresolved bool
	// PruneChecked reports that the pruned-vs-NoPrune equivalence property
	// ran (it is skipped when either side overruns the oracle limit).
	PruneChecked bool
	// DegradedChecked counts the degraded-mode soundness assertions that
	// ran on this scenario (the flag/method agreement on the normal solve
	// plus, when the forced heuristic produced a result, its Degraded tag
	// and lower-bound checks).
	DegradedChecked int
}

// Check runs the full differential oracle on one scenario. A non-nil error
// is a genuine disagreement (or an unexpected solver failure), never an
// artifact of an infeasible or oversized draw.
func Check(sc *gen.Scenario) (Outcome, error) {
	out := Outcome{Scenario: *sc, OracleValue: math.NaN(), HeurValue: math.NaN()}

	res, serr := core.Solve(&sc.Inst, sc.Req)
	if serr != nil && !errors.Is(serr, core.ErrInfeasible) && !errors.Is(serr, core.ErrUnresolved) {
		return out, fmt.Errorf("%s (seed %d, index %d): solver failed: %w", sc.Name, sc.Seed, sc.Index, serr)
	}

	// Plan equivalence runs on every scenario, feasible or not: an
	// infeasibility verdict must also reproduce identically through the
	// compiled plan.
	var perr error
	out.PlanQueries, perr = planEquivalence(sc)
	if perr != nil {
		return out, fmt.Errorf("%s (seed %d, index %d): plan equivalence: %w", sc.Name, sc.Seed, sc.Index, perr)
	}

	// Pruning equivalence likewise runs regardless of feasibility: an
	// infeasibility verdict must be reproduced by the pruned search too.
	var prerr error
	out.PruneChecked, prerr = pruneEquivalence(sc)
	if prerr != nil {
		return out, fmt.Errorf("%s (seed %d, index %d): pruning equivalence: %w", sc.Name, sc.Seed, sc.Index, prerr)
	}

	// An unresolved answer claims nothing, so there is nothing to check
	// against the oracle; it is counted, never tolerated silently.
	if errors.Is(serr, core.ErrUnresolved) {
		out.Unresolved = true
		return out, nil
	}

	oracle, oerr := bruteForce(&sc.Inst, sc.Req, oracleLimit)
	switch {
	case errors.Is(oerr, exact.ErrSearchSpace):
		out.OracleSkipped = true
	case errors.Is(oerr, exact.ErrInfeasible):
		if serr == nil {
			return out, fmt.Errorf("%s (seed %d, index %d): solver returned %q with value %g on an instance brute force proves infeasible",
				sc.Name, sc.Seed, sc.Index, res.Method, res.Value)
		}
		return out, nil // both sides agree: infeasible
	case oerr != nil:
		return out, fmt.Errorf("%s (seed %d, index %d): oracle failed: %w", sc.Name, sc.Seed, sc.Index, oerr)
	}

	if serr != nil {
		if out.OracleSkipped {
			return out, nil // cannot adjudicate; solver said infeasible
		}
		return out, fmt.Errorf("%s (seed %d, index %d): solver claims infeasible but brute force found optimum %g",
			sc.Name, sc.Seed, sc.Index, oracle)
	}

	out.Feasible = true
	out.Method, out.Optimal, out.Value = res.Method, res.Optimal, res.Value
	// Degraded-mode soundness (property 6) on the dispatcher's own result:
	// the flag must mean exactly "the exact path was abandoned".
	if err := checkDegraded(&res, oracle, !out.OracleSkipped); err != nil {
		return out, fmt.Errorf("%s (seed %d, index %d): %w", sc.Name, sc.Seed, sc.Index, err)
	}
	out.DegradedChecked++
	if !out.OracleSkipped {
		out.OracleValue = oracle
		if res.Optimal && !fmath.EQ(res.Value, oracle) {
			return out, fmt.Errorf("%s (seed %d, index %d): %q value %g differs from brute-force optimum %g",
				sc.Name, sc.Seed, sc.Index, res.Method, res.Value, oracle)
		}
		if !res.Optimal && !fmath.GE(res.Value, oracle) {
			return out, fmt.Errorf("%s (seed %d, index %d): heuristic value %g beats the proven optimum %g",
				sc.Name, sc.Seed, sc.Index, res.Value, oracle)
		}
	}
	if err := replay(sc, &res); err != nil {
		return out, fmt.Errorf("%s (seed %d, index %d): %w", sc.Name, sc.Seed, sc.Index, err)
	}

	// Heuristic soundness: force the heuristic path on the same problem
	// and bound it below by the exact optimum.
	if sc.Index%heurEvery == 0 && !out.OracleSkipped {
		out.HeurChecked = true
		hreq := sc.Req
		hreq.ExactLimit = 1 // any real search space exceeds 1: forces the heuristic
		hreq.HeurIters, hreq.HeurRestarts = heurIters, heurRestarts
		hres, herr := core.Solve(&sc.Inst, hreq)
		switch {
		case errors.Is(herr, core.ErrUnresolved):
			out.HeurMissed = true // incomplete search is allowed to miss
		case herr != nil: // an "infeasible" here is false: the oracle found a mapping
			return out, fmt.Errorf("%s (seed %d, index %d): forced heuristic failed: %w", sc.Name, sc.Seed, sc.Index, herr)
		default:
			out.HeurValue = hres.Value
			if !fmath.GE(hres.Value, oracle) {
				return out, fmt.Errorf("%s (seed %d, index %d): forced heuristic value %g beats the proven optimum %g",
					sc.Name, sc.Seed, sc.Index, hres.Value, oracle)
			}
			if err := replay(sc, &hres); err != nil {
				return out, fmt.Errorf("%s (seed %d, index %d): forced heuristic %w", sc.Name, sc.Seed, sc.Index, err)
			}
			// Property 6 on the budget-capped solve: ExactLimit 1 abandons
			// the exhaustive path wherever the cell needed it, and the
			// result must be tagged Degraded exactly then (polynomial
			// theorem cells ignore the cap — they abandoned nothing).
			if hres.Method == core.MethodHeuristic && !hres.Degraded {
				return out, fmt.Errorf("%s (seed %d, index %d): budget-capped heuristic result is not tagged Degraded",
					sc.Name, sc.Seed, sc.Index)
			}
			if err := checkDegraded(&hres, oracle, true); err != nil {
				return out, fmt.Errorf("%s (seed %d, index %d): forced heuristic %w", sc.Name, sc.Seed, sc.Index, err)
			}
			out.DegradedChecked++
		}
	}
	return out, nil
}

// checkDegraded is property 6: Degraded iff the heuristic method, and a
// degraded result's LowerBound must be a genuine lower bound — no larger
// than the achieved value, and (when the oracle ran) no larger than the
// brute-force optimum it claims to bound.
func checkDegraded(res *core.Result, oracle float64, haveOracle bool) error {
	if res.Degraded != (res.Method == core.MethodHeuristic) {
		return fmt.Errorf("degraded flag %v disagrees with method %q", res.Degraded, res.Method)
	}
	if !res.Degraded {
		return nil
	}
	if !fmath.LE(res.LowerBound, res.Value) {
		return fmt.Errorf("degraded lower bound %g exceeds the achieved value %g", res.LowerBound, res.Value)
	}
	if haveOracle && !fmath.LE(res.LowerBound, oracle) {
		return fmt.Errorf("degraded lower bound %g exceeds the true optimum %g: the bound is not provable", res.LowerBound, oracle)
	}
	return nil
}

// replay is the consistency oracle: the returned mapping must be legal, its
// reported metrics must match a fresh analytic evaluation bit-for-bit, the
// reported value must be the requested objective of those metrics, every
// bound in the request must hold, and the discrete-event simulator must
// measure exactly the analytic period and latency.
func replay(sc *gen.Scenario, res *core.Result) error {
	inst, req := &sc.Inst, sc.Req
	if err := res.Mapping.Validate(inst, req.Rule); err != nil {
		return fmt.Errorf("returned mapping invalid: %w", err)
	}
	mt := mapping.Evaluate(inst, &res.Mapping, req.Model)
	//lint:allow floatcmp the oracle asserts bit-for-bit agreement; tolerance would mask drift
	if mt.Period != res.Metrics.Period || mt.Latency != res.Metrics.Latency || mt.Energy != res.Metrics.Energy {
		return fmt.Errorf("reported metrics (T %g, L %g, E %g) differ from re-evaluation (T %g, L %g, E %g)",
			res.Metrics.Period, res.Metrics.Latency, res.Metrics.Energy, mt.Period, mt.Latency, mt.Energy)
	}
	want := mt.Period
	switch req.Objective {
	case core.Latency:
		want = mt.Latency
	case core.Energy:
		want = mt.Energy
	}
	if !fmath.EQ(res.Value, want) {
		return fmt.Errorf("reported value %g is not the mapping's %v %g", res.Value, req.Objective, want)
	}
	for a := range inst.Apps {
		if req.PeriodBounds != nil && !fmath.LE(mt.AppPeriods[a], req.PeriodBounds[a]) {
			return fmt.Errorf("app %d period %g violates bound %g", a, mt.AppPeriods[a], req.PeriodBounds[a])
		}
		if req.LatencyBounds != nil && !fmath.LE(mt.AppLatencies[a], req.LatencyBounds[a]) {
			return fmt.Errorf("app %d latency %g violates bound %g", a, mt.AppLatencies[a], req.LatencyBounds[a])
		}
	}
	if req.EnergyBudget > 0 && !fmath.LE(mt.Energy, req.EnergyBudget) {
		return fmt.Errorf("energy %g violates budget %g", mt.Energy, req.EnergyBudget)
	}
	if err := sim.Verify(inst, &res.Mapping, req.Model, simTol); err != nil {
		return fmt.Errorf("simulator disagrees with the analytic model: %w", err)
	}
	return nil
}

// planEquivalence is the compiled-plan oracle: Compile the scenario's
// instance once and replay a small query battery against the plan — the
// scenario's own request plus a derived query with a different objective,
// first in an order that alternates per scenario index, then each a second
// time so the repeat goes through the plan's memo. Every answer must be
// bit-for-bit identical to a fresh one-shot core.Solve of the materialized
// request: reflect.DeepEqual on the Result (exact float bits, method,
// optimality flag, mapping and metrics slices including their nil-ness) and
// string equality on errors. Returns the number of queries replayed.
func planEquivalence(sc *gen.Scenario) (int, error) {
	pl, err := plan.Compile(&sc.Inst, sc.Req.Rule, sc.Req.Model)
	if err != nil {
		return 0, fmt.Errorf("compile failed: %w", err)
	}
	base := plan.QueryOf(sc.Req)
	derived := base
	if base.Objective == core.Period {
		derived.Objective = core.Latency
	} else {
		derived.Objective = core.Period
	}
	distinct := []plan.Query{base, derived}
	if sc.Index%2 == 1 {
		distinct[0], distinct[1] = distinct[1], distinct[0]
	}
	// One fresh one-shot solve per distinct query (core.Solve is
	// deterministic per request, so the repeat expects the same answer).
	type expect struct {
		res core.Result
		err error
	}
	want := make([]expect, len(distinct))
	for i, q := range distinct {
		want[i].res, want[i].err = core.Solve(&sc.Inst, pl.Request(q))
	}
	queries := 0
	for pass := 0; pass < 2; pass++ { // second pass repeats every query: memo path
		for i, q := range distinct {
			got, gerr := pl.Solve(q)
			queries++
			switch {
			case (gerr == nil) != (want[i].err == nil),
				gerr != nil && gerr.Error() != want[i].err.Error():
				//lint:allow errclass diagnostic compares two error texts and either may be nil, which %w cannot format
				return queries, fmt.Errorf("pass %d query %v: plan error %v, one-shot error %v",
					pass, q.Objective, gerr, want[i].err)
			case !reflect.DeepEqual(got, want[i].res):
				return queries, fmt.Errorf("pass %d query %v: plan result %+v differs from one-shot %+v",
					pass, q.Objective, got, want[i].res)
			}
		}
	}
	return queries, nil
}

// pruneEquivalence is the branch-and-bound oracle: solve the scenario's own
// problem once with the full bag of tricks (bound pruning, symmetry
// breaking, incremental evaluation) and once with Options.NoPrune walking
// the entire space, and demand bit-for-bit agreement — the same optimal
// value down to the last float bit, or the same error string. Witness
// mappings may legitimately differ under symmetry breaking (two
// interchangeable processors yield distinct mappings with identical
// metrics), so only values and verdicts are compared. Returns false
// (skipped) when either side overruns the limit: the NoPrune walk visits
// the whole space, so it hits the cap long before the pruned search does.
func pruneEquivalence(sc *gen.Scenario) (bool, error) {
	opt, goal := core.ExactProblem(sc.Req)
	opt.Limit = oracleLimit
	pruned, perr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
	opt.NoPrune = true
	ref, rerr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
	if errors.Is(perr, exact.ErrSearchSpace) || errors.Is(rerr, exact.ErrSearchSpace) {
		return false, nil
	}
	switch {
	case (perr == nil) != (rerr == nil),
		perr != nil && perr.Error() != rerr.Error():
		//lint:allow errclass diagnostic compares two error texts and either may be nil, which %w cannot format
		return true, fmt.Errorf("pruned error %v, NoPrune error %v", perr, rerr)
	case perr == nil:
		//lint:allow floatcmp the oracle asserts bit-for-bit agreement; tolerance would mask drift
		if pruned.Value != ref.Value {
			return true, fmt.Errorf("pruned value %v differs from NoPrune value %v (stats %+v)",
				pruned.Value, ref.Value, pruned.Stats)
		}
	}
	return true, nil
}

// bruteForce enumerates every valid mapping under the request's rule and
// returns the optimum of the requested objective among those satisfying the
// request's bounds. It is the ground truth: a single exhaustive pass with
// no algorithmic insight beyond the mode-restriction soundness argument
// (FastestOnly is lossless without an energy criterion, Section 2). It
// returns exact.ErrInfeasible when no mapping satisfies the bounds and
// exact.ErrSearchSpace past the limit.
func bruteForce(inst *pipeline.Instance, req core.Request, limit int64) (float64, error) {
	modes := exact.FastestOnly
	if req.Objective == core.Energy || req.EnergyBudget > 0 {
		modes = exact.AllModes
	}
	best := math.Inf(1)
	found := false
	err := exact.Enumerate(inst, exact.Options{Rule: req.Rule, Modes: modes, Limit: limit}, func(m *mapping.Mapping) error {
		for a := range m.Apps {
			if req.PeriodBounds != nil && !fmath.LE(mapping.AppPeriod(inst, m, a, req.Model), req.PeriodBounds[a]) {
				return nil
			}
			if req.LatencyBounds != nil && !fmath.LE(mapping.AppLatency(inst, m, a), req.LatencyBounds[a]) {
				return nil
			}
		}
		if req.EnergyBudget > 0 && !fmath.LE(mapping.Energy(inst, m), req.EnergyBudget) {
			return nil
		}
		var v float64
		switch req.Objective {
		case core.Period:
			v = mapping.Period(inst, m, req.Model)
		case core.Latency:
			v = mapping.Latency(inst, m)
		default:
			v = mapping.Energy(inst, m)
		}
		if !found || v < best {
			best, found = v, true
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, exact.ErrInfeasible
	}
	return best, nil
}

// Summary aggregates a corpus run.
type Summary struct {
	// Checked is the number of scenarios examined. Feasible counts those
	// whose returned mapping passed the consistency replay; Infeasible
	// counts those where solver AND brute force agree no mapping exists
	// (a solver infeasibility verdict whose oracle was skipped counts in
	// neither — only in OracleSkips).
	Checked, Feasible, Infeasible int
	// OracleSkips counts scenarios whose brute-force space exceeded the
	// limit (their consistency replay still ran).
	OracleSkips int
	// Unresolved counts core.ErrUnresolved answers: the solver found no
	// mapping within its search budget and claimed nothing.
	Unresolved int
	// Combos counts scenarios per (class, rule, model, criterion) label.
	Combos map[string]int
	// Methods counts solver dispatch methods across feasible scenarios.
	Methods map[core.Method]int
	// HeurChecked and HeurMisses report the forced-heuristic runs and how
	// many found no feasible mapping despite one existing.
	HeurChecked, HeurMisses int
	// PlanChecked counts scenarios whose plan-equivalence battery ran to
	// completion; PlanQueries totals the individual plan queries asserted
	// bit-identical to fresh one-shot solves across them.
	PlanChecked, PlanQueries int
	// PruneChecked counts scenarios where the branch-and-bound search was
	// asserted bit-identical (value, feasibility, error strings) to the
	// NoPrune reference walk.
	PruneChecked int
	// DegradedChecked totals the degraded-mode soundness assertions
	// (property 6): flag/method agreement on every feasible solve plus
	// the Degraded tag and lower-bound checks on forced budget-capped
	// solves.
	DegradedChecked int
}

// maxReported caps how many disagreements Run reports, so a systematic bug
// does not drown the report.
const maxReported = 8

// Run samples n scenarios from the space and differentially checks each on
// a bounded worker pool. It returns the aggregate summary plus a joined
// error of the reported disagreements. Deterministic per (seed, n).
func Run(space gen.Space, seed int64, n int) (Summary, error) {
	if err := space.Validate(); err != nil {
		return Summary{}, err
	}
	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	batch.Each(context.Background(), n, 0, func(i int) {
		sc := space.Sample(seed, i)
		outcomes[i], errs[i] = Check(&sc)
	}, nil)

	sum := Summary{Combos: make(map[string]int), Methods: make(map[core.Method]int)}
	var reported []error
	for i := range outcomes {
		out := &outcomes[i]
		sum.Checked++
		sum.Combos[out.Scenario.Combo()]++
		if errs[i] != nil {
			if len(reported) < maxReported {
				reported = append(reported, errs[i])
			}
			continue
		}
		if out.OracleSkipped {
			sum.OracleSkips++
		}
		switch {
		case out.Unresolved:
			sum.Unresolved++
		case out.Feasible:
			// Even with a skipped oracle, the consistency replay
			// adjudicated the returned mapping.
			sum.Feasible++
			sum.Methods[out.Method]++
		case !out.OracleSkipped:
			sum.Infeasible++
			// A solver infeasibility verdict with a skipped oracle is
			// unadjudicated: it counts only in OracleSkips, never as an
			// agreement.
		}
		if out.HeurChecked {
			sum.HeurChecked++
			if out.HeurMissed {
				sum.HeurMisses++
			}
		}
		if out.PlanQueries > 0 {
			sum.PlanChecked++
			sum.PlanQueries += out.PlanQueries
		}
		if out.PruneChecked {
			sum.PruneChecked++
		}
		sum.DegradedChecked += out.DegradedChecked
	}
	return sum, errors.Join(reported...)
}
