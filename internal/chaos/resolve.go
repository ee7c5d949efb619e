// Failure re-solve: given a compiled plan and a fault event, compute the
// post-fault mapping, a structured migration diff against the pre-fault
// mapping, and (for replicated deployments) the promotion of surviving
// replicas. Both mappings are verified by replaying them through the
// discrete-event simulator before the result is returned — a re-solve that
// disagrees with the simulator is an error, never a silently wrong answer.

package chaos

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/sim"
)

// verifyTol is the simulator replay tolerance, matching the differential
// harness (internal/diffcheck).
const verifyTol = 1e-9

// MigrationDiff quantifies how much of a running deployment a re-solved
// mapping disturbs. All processor indices are in the PRE-fault instance's
// index space (post-fault processors are translated back through
// Applied.ProcMap), so the diff reads as operations on the deployment the
// operator actually has.
type MigrationDiff struct {
	// StagesTotal counts all stages of all applications; StagesMoved those
	// whose stage now runs on a different processor.
	StagesTotal, StagesMoved int
	// ModeChanges counts stages that stay on their processor but switch
	// DVFS mode (a reconfiguration, much cheaper than a migration).
	ModeChanges int
	// ProcsRetired lists processors used before but not after; a failed
	// processor always appears here if it carried load. ProcsEnrolled
	// lists processors newly brought into service. Both ascending.
	ProcsRetired, ProcsEnrolled []int
	// Disruption is the estimated migration cost: the total computation
	// weight (in the pre-fault instance) of the moved stages — a proxy for
	// the state that must be transferred between processors.
	Disruption float64
}

// String implements fmt.Stringer.
func (d MigrationDiff) String() string {
	return fmt.Sprintf("moved %d/%d stages, %d mode changes, retired %v, enrolled %v, disruption %.3g",
		d.StagesMoved, d.StagesTotal, d.ModeChanges, d.ProcsRetired, d.ProcsEnrolled, d.Disruption)
}

// ResolveResult is the full outcome of a failure re-solve.
type ResolveResult struct {
	// Event is the injected fault; Applied its mutated, re-validated
	// instance and processor translation.
	Event   Event
	Applied Applied
	// Before is the pre-fault solve on the plan's instance, After the
	// re-solve on the mutated instance. Both mappings have been replayed
	// through the simulator.
	Before, After core.Result
	// Diff is the migration from Before's mapping to After's.
	Diff MigrationDiff
}

// Resolve computes the post-fault mapping for the plan's problem: solve
// (or reuse from the plan's memo) the pre-fault query, apply the event,
// recompile, re-solve the same query, verify both mappings against the
// simulator, and diff them. Deterministic for a deterministic query: the
// same (plan, query, event) triple always yields bit-identical results.
func Resolve(pl *plan.Plan, q plan.Query, ev Event) (*ResolveResult, error) {
	return ResolveCtx(context.Background(), pl, q, ev)
}

// ResolveCtx is Resolve under the caller's context: both the pre-fault
// solve and the re-solve run through plan.SolveCtx, so they stop when ctx
// ends and answer its error. The query's effort fields bound the work of
// each solve.
func ResolveCtx(ctx context.Context, pl *plan.Plan, q plan.Query, ev Event) (*ResolveResult, error) {
	before, err := pl.SolveCtx(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("chaos: pre-fault solve: %w", err)
	}
	ap, err := Apply(pl.Instance(), ev)
	if err != nil {
		return nil, err
	}
	pl2, err := plan.Compile(&ap.Inst, pl.Rule(), pl.Model())
	if err != nil {
		return nil, fmt.Errorf("chaos: recompile after %v: %w", ev, err)
	}
	after, err := pl2.SolveCtx(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("chaos: re-solve after %v: %w", ev, err)
	}
	if err := sim.Verify(pl.Instance(), &before.Mapping, pl.Model(), verifyTol); err != nil {
		return nil, fmt.Errorf("chaos: pre-fault mapping failed simulator replay: %w", err)
	}
	if err := sim.Verify(&ap.Inst, &after.Mapping, pl.Model(), verifyTol); err != nil {
		return nil, fmt.Errorf("chaos: post-fault mapping failed simulator replay: %w", err)
	}
	res := &ResolveResult{Event: ev, Applied: ap, Before: before, After: after}
	res.Diff = Diff(pl.Instance(), &before.Mapping, &after.Mapping, &res.Applied)
	return res, nil
}

// Diff computes the migration between a pre-fault mapping on orig and a
// post-fault mapping on ap.Inst, with every post-fault processor index
// translated back to orig's index space through ap.ProcMap.
func Diff(orig *pipeline.Instance, before, after *mapping.Mapping, ap *Applied) MigrationDiff {
	var d MigrationDiff
	origProcs := orig.Platform.NumProcessors()
	usedBefore := make([]bool, origProcs)
	usedAfter := make([]bool, origProcs)
	for a := range before.Apps {
		n := orig.Apps[a].NumStages()
		d.StagesTotal += n
		bProc, bMode := stagePlacement(before.Apps[a].Intervals, n)
		aProc, aMode := stagePlacement(after.Apps[a].Intervals, n)
		for k := 0; k < n; k++ {
			oldProc := bProc[k]
			newProc := ap.ProcMap[aProc[k]]
			usedBefore[oldProc] = true
			usedAfter[newProc] = true
			if newProc != oldProc {
				d.StagesMoved++
				d.Disruption += orig.Apps[a].Stages[k].Work
			} else if aMode[k] != bMode[k] {
				d.ModeChanges++
			}
		}
	}
	for u := 0; u < origProcs; u++ {
		switch {
		case usedBefore[u] && !usedAfter[u]:
			d.ProcsRetired = append(d.ProcsRetired, u)
		case usedAfter[u] && !usedBefore[u]:
			d.ProcsEnrolled = append(d.ProcsEnrolled, u)
		}
	}
	return d
}

// stagePlacement flattens an application's intervals into per-stage
// processor and mode arrays.
func stagePlacement(ivs []mapping.PlacedInterval, n int) (procs, modes []int) {
	procs = make([]int, n)
	modes = make([]int, n)
	for _, iv := range ivs {
		for k := iv.From; k <= iv.To; k++ {
			procs[k] = iv.Proc
			modes[k] = iv.Mode
		}
	}
	return procs, modes
}

// Promote rebuilds a replicated mapping (indices in orig's processor
// space) after a fault: replicas on a failed processor are dropped — their
// group's survivors are promoted to carry the full load — remaining
// replicas are reindexed into the post-event processor space, and modes
// beyond a shrunken DVFS ladder are clamped to the fastest remaining mode.
// dropped counts the replicas removed. The promoted mapping is validated
// against the mutated instance before being returned.
//
// Promote returns a wrapped ErrInapplicable when an interval loses its
// only replica: redundancy cannot absorb that fault and the caller must
// fall back to a full re-solve (Resolve).
func Promote(orig *pipeline.Instance, rm *repl.Mapping, ap *Applied) (repl.Mapping, int, error) {
	inv := make([]int, orig.Platform.NumProcessors())
	for i := range inv {
		inv[i] = -1
	}
	for u, o := range ap.ProcMap {
		inv[o] = u
	}
	dropped := 0
	out := repl.Mapping{Apps: make([]repl.AppMapping, len(rm.Apps))}
	for a := range rm.Apps {
		for _, iv := range rm.Apps[a].Intervals {
			niv := repl.Interval{From: iv.From, To: iv.To}
			for _, r := range iv.Replicas {
				if r.Proc < 0 || r.Proc >= len(inv) {
					return repl.Mapping{}, dropped, fmt.Errorf("chaos: promote: replica on unknown processor %d", r.Proc)
				}
				nu := inv[r.Proc]
				if nu < 0 {
					dropped++
					continue
				}
				if modes := ap.Inst.Platform.Processors[nu].NumModes(); r.Mode >= modes {
					r.Mode = modes - 1
				}
				niv.Replicas = append(niv.Replicas, repl.Replica{Proc: nu, Mode: r.Mode})
			}
			if len(niv.Replicas) == 0 {
				return repl.Mapping{}, dropped, fmt.Errorf("%w: app %d interval [%d,%d] lost every replica", ErrInapplicable, a, iv.From, iv.To)
			}
			out.Apps[a].Intervals = append(out.Apps[a].Intervals, niv)
		}
	}
	if err := out.Validate(&ap.Inst); err != nil {
		return repl.Mapping{}, dropped, fmt.Errorf("chaos: promoted mapping invalid: %w", err)
	}
	return out, dropped, nil
}
