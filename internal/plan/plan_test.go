package plan

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// fig1Queries is the Section 2 battery: the four motivating-example
// questions plus a bounded-energy variant, spanning all three criteria.
func fig1Queries(inst *pipeline.Instance) []Query {
	return []Query{
		{Objective: core.Period},
		{Objective: core.Latency},
		{Objective: core.Energy, PeriodBounds: core.UniformBounds(inst, math.Inf(1))},
		{Objective: core.Energy, PeriodBounds: core.UniformBounds(inst, 2)},
		{Objective: core.Energy, PeriodBounds: core.UniformBounds(inst, 3)},
	}
}

// TestSolveMatchesCore asserts plan queries are bit-identical to fresh
// one-shot solves: same result (exact float bits, method, optimality,
// mapping) or same error, across criteria, bounds and both answers of a
// repeated query.
func TestSolveMatchesCore(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	queries := fig1Queries(&inst)
	// Infeasible and unsupported queries must reproduce their errors too.
	queries = append(queries,
		Query{Objective: core.Energy, PeriodBounds: core.UniformBounds(&inst, 0.01)},
		Query{Objective: core.Energy}, // no period bounds: ErrUnsupported
	)
	for rep := 0; rep < 2; rep++ {
		for i, q := range queries {
			want, werr := core.Solve(&inst, pl.Request(q))
			got, gerr := pl.Solve(q)
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("rep %d query %d: plan error %v, core error %v", rep, i, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rep %d query %d: plan result %+v differs from core %+v", rep, i, got, want)
			}
		}
	}
	st := pl.QueryStats()
	if st.Queries != int64(2*len(queries)) {
		t.Errorf("Queries = %d, want %d", st.Queries, 2*len(queries))
	}
	if st.Hits != int64(len(queries)) {
		t.Errorf("Hits = %d, want %d (the whole second pass)", st.Hits, len(queries))
	}
	if st.Entries != len(queries) {
		t.Errorf("Entries = %d, want %d", st.Entries, len(queries))
	}
}

// TestCompileValidates asserts Compile rejects an invalid instance with the
// same error a direct solve would report.
func TestCompileValidates(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Apps[0].Stages[0].Work = -1
	_, cerr := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if cerr == nil {
		t.Fatal("Compile accepted an invalid instance")
	}
	_, serr := core.Solve(&inst, core.Request{Rule: mapping.Interval, Objective: core.Period})
	if serr == nil || cerr.Error() != serr.Error() {
		t.Fatalf("Compile error %q differs from core.Solve error %q", cerr, serr)
	}
}

// TestCompileClonesInstance asserts a plan owns its instance: mutating the
// caller's instance after Compile must not change any future answer.
func TestCompileClonesInstance(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want, err := pl.Solve(Query{Objective: core.Period})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	inst.Apps[0].Stages[0].Work = 1e6 // would change the optimum if shared
	inst.Platform.Processors[0].Speeds[0] = 1e-6
	got, err := pl.Solve(Query{Objective: core.Period})
	if err != nil {
		t.Fatalf("Solve after mutation: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mutating the caller's instance changed the plan's answer")
	}
}

// TestMutationAliasing asserts returned results are independent copies:
// scribbling over one answer's mapping and metrics must not corrupt the
// memo serving the next answer (the bug class the batch cache's clone
// guards against).
func TestMutationAliasing(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	q := Query{Objective: core.Energy, PeriodBounds: core.UniformBounds(&inst, 2)}
	first, err := pl.Solve(q)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	pristine, _ := pl.Solve(q)
	first.Mapping.Apps[0].Intervals[0].Proc = 99
	first.Mapping.Apps[0].Intervals[0].Mode = 99
	for a := range first.Metrics.AppPeriods {
		first.Metrics.AppPeriods[a] = -1
	}
	second, err := pl.Solve(q)
	if err != nil {
		t.Fatalf("Solve after mutation: %v", err)
	}
	if !reflect.DeepEqual(second, pristine) {
		t.Fatal("mutating a returned result corrupted the plan's memo")
	}
	if second.Mapping.Apps[0].Intervals[0].Proc == 99 {
		t.Fatal("memo hit shares mapping memory with a previous answer")
	}
}

// TestConcurrentHammer hammers one shared plan from many goroutines with
// mixed criteria and bounds (run under -race via the Makefile race target);
// every answer must equal the single-threaded expectation bit-for-bit, and
// callers mutate their results as they go to shake out aliasing races.
func TestConcurrentHammer(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	queries := fig1Queries(&inst)
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		if want[i], err = core.Solve(&inst, pl.Request(q)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	const goroutines = 16
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(queries)
				got, err := pl.Solve(queries[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d iter %d: result differs from single-threaded solve", g, it)
					return
				}
				// Scribble on the answer: must never reach another caller.
				got.Mapping.Apps[0].Intervals[0].Proc = g
				if got.Metrics.AppPeriods != nil {
					got.Metrics.AppPeriods[0] = float64(it)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := pl.QueryStats(); st.Queries != goroutines*iters {
		t.Errorf("Queries = %d, want %d", st.Queries, goroutines*iters)
	}
}

// TestMemoEviction floods a plan with more distinct queries than memoCap
// and asserts the memo stays bounded while answers stay correct.
func TestMemoEviction(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want, err := pl.Solve(Query{Objective: core.Period})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Seed only perturbs the heuristic path, so these all solve to the
	// same answer through the polynomial dispatch while occupying distinct
	// memo keys.
	for s := int64(1); s <= memoCap+8; s++ {
		got, err := pl.Solve(Query{Objective: core.Period, Seed: s})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if got.Value != want.Value {
			t.Fatalf("seed %d: value %g, want %g", s, got.Value, want.Value)
		}
	}
	st := pl.QueryStats()
	if st.Entries > memoCap {
		t.Errorf("memo holds %d entries, cap %d", st.Entries, memoCap)
	}
	if st.Evictions == 0 {
		t.Error("flooding past the cap evicted nothing")
	}
}

// TestPanicConfined asserts a panicking query is published as an error to
// the caller (and any waiter) instead of unwinding, and poisons only its
// own memo entry.
func TestPanicConfined(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// An out-of-range objective reaches the dispatcher's default branch as
	// a plain error, not a panic, so force one via bounds of wrong arity —
	// core.CheckBounds errors — no panic either. Instead corrupt the plan's
	// private instance the way no API caller can, proving the recover path
	// still publishes: a nil processor speeds slice makes the solver
	// panic on index.
	saved := pl.inst.Platform.Processors[0].Speeds
	pl.inst.Platform.Processors[0].Speeds = nil
	_, perr := pl.Solve(Query{Objective: core.Period})
	pl.inst.Platform.Processors[0].Speeds = saved
	if perr == nil || !strings.Contains(perr.Error(), "panicked") {
		t.Fatalf("panicking query returned %v, want a published panic error", perr)
	}
	// A different query key still works.
	if _, err := pl.Solve(Query{Objective: core.Period, Seed: 1}); err != nil {
		t.Fatalf("plan poisoned beyond the offending key: %v", err)
	}
}

// TestAllocsRepeatQuery locks in the arena-reuse win: a repeat query on a
// compiled plan must run allocation-near-zero (only the defensive copy of
// the small answer), far below a fresh one-shot solve.
func TestAllocsRepeatQuery(t *testing.T) {
	inst := pipeline.MotivatingExample()
	pl, err := Compile(&inst, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	req := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
		PeriodBounds: core.UniformBounds(&inst, 2)}
	q := QueryOf(req)
	if _, err := pl.Solve(q); err != nil { // warm the memo
		t.Fatalf("Solve: %v", err)
	}
	repeat := testing.AllocsPerRun(200, func() {
		if _, err := pl.Solve(q); err != nil {
			t.Fatalf("Solve: %v", err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := core.Solve(&inst, req); err != nil {
			t.Fatalf("core.Solve: %v", err)
		}
	})
	// The steady-state hit is a pooled key encode, a map lookup and the
	// defensive deep copy of a 2-app result: a dozen small allocations at
	// most. A fresh solve runs the pooled branch-and-bound arena these
	// days, so it is nearly allocation-free itself — the memo hit must
	// still never be heavier than re-solving.
	const maxRepeat = 12
	if repeat > maxRepeat {
		t.Errorf("repeat query allocates %.0f allocs/op, want <= %d", repeat, maxRepeat)
	}
	if repeat > fresh {
		t.Errorf("repeat query (%.0f allocs/op) is heavier than a fresh solve (%.0f allocs/op)",
			repeat, fresh)
	}
}
