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

// TestDigestCollisionStaysExact forces every plan key onto one digest, so
// two plans sharing a memo ask for the same query keys: each plan must
// still answer bit-identically to core.Solve on its own instance, with
// and without a budget, on first asks and repeats alike, and only a plan
// whose own answer is stored may count a hit.
func TestDigestCollisionStaysExact(t *testing.T) {
	saved := digestKey
	digestKey = func(string) (d [digestLen]byte) { return d }
	defer func() { digestKey = saved }()

	a := pipeline.MotivatingExample()
	b := a.Clone()
	b.Apps[0].Stages[0].Work *= 3 // a different instance, hence different answers
	shared := memo.New[Stored](0)
	plA, err := CompileShared(&a, mapping.Interval, pipeline.Overlap, shared, "plan-a")
	if err != nil {
		t.Fatal(err)
	}
	plB, err := CompileShared(&b, mapping.Interval, pipeline.Overlap, shared, "plan-b")
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
	// Plan a installed every entry and answers its repeats from them; plan
	// b's asks all collide with plan a's answers and never count a hit.
	if st := plA.QueryStats(); st.Hits != st.Queries-int64(len(queries)) {
		t.Errorf("plan a: %d hits of %d queries, want all but the %d first asks", st.Hits, st.Queries, len(queries))
	}
	if st := plB.QueryStats(); st.Hits != 0 {
		t.Errorf("plan b: %d hits on colliding entries, want 0", st.Hits)
	}
	if n := shared.Len(); n != len(queries) {
		t.Errorf("shared memo holds %d entries, want %d (plan a's)", n, len(queries))
	}
}
