package plan

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
)

// TestSharedMemoKeepsPlansApart compiles two plans over different
// instances into one memo and asks both the same queries, with and without
// a budget, on first asks and repeats alike: each plan must answer
// bit-identically to core.Solve on its own instance and count hits only on
// its own entries, and the memo must hold both plans' answers.
func TestSharedMemoKeepsPlansApart(t *testing.T) {
	a := pipeline.MotivatingExample()
	b := a.Clone()
	b.Apps[0].Stages[0].Work *= 3 // a different instance, hence different answers
	shared := memo.New[core.Packed](0)
	plA, err := CompileShared(&a, mapping.Interval, pipeline.Overlap, shared)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := CompileShared(&b, mapping.Interval, pipeline.Overlap, shared)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(fig1Queries(&a),
		Query{Objective: core.Energy, PeriodBounds: core.UniformBounds(&a, 0.01)}, // infeasible
		Query{Objective: core.Energy}, // unsupported
	)
	budget := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), time.Minute)
	}
	for rep := 0; rep < 2; rep++ {
		for i, q := range queries {
			for _, c := range []struct {
				name string
				pl   *Plan
				inst *pipeline.Instance
			}{{"a", plA, &a}, {"b", plB, &b}} {
				want, werr := core.Solve(c.inst, c.pl.Request(q))
				ctx, cancel := budget()
				for _, ask := range []func() (core.Result, error){
					func() (core.Result, error) { return c.pl.Solve(q) },
					func() (core.Result, error) { return c.pl.SolveCtx(ctx, q) },
				} {
					got, gerr := ask()
					if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
						t.Fatalf("rep %d query %d plan %s: error %v, core error %v", rep, i, c.name, gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("rep %d query %d plan %s: result %+v differs from core %+v", rep, i, c.name, got, want)
					}
				}
				cancel()
			}
		}
	}
	// Each plan installed one entry per query on its first ask and answered
	// every later ask from it, never from the other plan's entries.
	for name, pl := range map[string]*Plan{"a": plA, "b": plB} {
		if st := pl.QueryStats(); st.Queries != int64(4*len(queries)) || st.Hits != st.Queries-int64(len(queries)) {
			t.Errorf("plan %s: %d hits of %d queries, want %d of %d", name, st.Hits, st.Queries, 3*len(queries), 4*len(queries))
		}
	}
	if n := shared.Len(); n != 2*len(queries) {
		t.Errorf("shared memo holds %d entries, want %d (both plans')", n, 2*len(queries))
	}
}
