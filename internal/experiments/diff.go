package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/gen"
	"repro/internal/report"
)

// Diff runs the differential verification harness (experiment DIFF): a
// seeded corpus of randomly generated scenarios spanning every platform
// class, communication model, mapping rule and criterion is solved through
// the dispatcher and cross-checked against brute force, the discrete-event
// simulator, the compiled-plan layer and the NoPrune reference walk (see
// internal/diffcheck for the five checked properties). n <= 0 draws six
// full combination windows.
func Diff(w io.Writer, seed int64, n int) error {
	space := gen.DefaultSpace()
	if n <= 0 {
		n = 6 * space.CombinationCount()
	}
	sum, err := diffcheck.Run(space, seed, n)

	tb := report.New(fmt.Sprintf("DIFF - differential verification, %d seeded scenarios (seed %d)", sum.Checked, seed),
		"check", "count", "match")
	tb.Addf("scenarios checked", sum.Checked, okMark(err == nil))
	tb.Addf("variant combinations covered", len(sum.Combos), okMark(len(sum.Combos) == space.CombinationCount()))
	tb.Addf("feasible (solver == brute force)", sum.Feasible, okMark(err == nil))
	tb.Addf("infeasible (both sides agree)", sum.Infeasible, okMark(err == nil))
	tb.Addf("oracle skips (search space cap)", sum.OracleSkips, okMark(sum.OracleSkips <= sum.Checked/20))
	tb.Addf("forced-heuristic lower-bound checks", sum.HeurChecked, okMark(err == nil))
	tb.Addf("heuristic misses (allowed, incomplete)", sum.HeurMisses, "-")
	tb.Addf("degraded-mode soundness checks", sum.DegradedChecked, okMark(err == nil && sum.DegradedChecked > 0))
	tb.Addf("plan-equivalence scenarios", sum.PlanChecked, okMark(sum.PlanChecked == sum.Checked))
	tb.Addf("plan queries bit-identical to one-shot", sum.PlanQueries, okMark(err == nil))
	tb.Addf("pruned search == NoPrune walk (bitwise)", sum.PruneChecked, okMark(err == nil))
	tb.Render(w)
	fmt.Fprintln(w)

	mt := report.New("DIFF - dispatch methods exercised", "method", "scenarios")
	for _, m := range methodOrder(sum) {
		mt.Addf(string(m), sum.Methods[m])
	}
	mt.Render(w)
	fmt.Fprintln(w)

	if err != nil {
		return fmt.Errorf("experiments: differential corpus disagreed:\n%w", err)
	}
	if want := space.CombinationCount(); len(sum.Combos) != want {
		return fmt.Errorf("experiments: corpus covered %d of %d variant combinations (raise n)", len(sum.Combos), want)
	}
	return nil
}

// methodOrder returns the observed dispatch methods sorted by name so the
// table is stable across runs.
func methodOrder(sum diffcheck.Summary) []core.Method {
	out := make([]core.Method, 0, len(sum.Methods))
	for m := range sum.Methods {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
