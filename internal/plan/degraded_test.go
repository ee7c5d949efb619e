package plan

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestSolveCtxBackgroundIsSolve pins that a context without deadline or
// cancellation changes nothing: SolveCtx is bit-identical to Solve.
func TestSolveCtxBackgroundIsSolve(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p1, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Objective: core.Latency}
	r1, e1 := p1.Solve(q)
	r2, e2 := p2.SolveCtx(context.Background(), q)
	if !reflect.DeepEqual(r1, r2) || !errors.Is(e1, e2) && (e1 != nil || e2 != nil) {
		t.Fatalf("SolveCtx(Background) diverged from Solve: %+v / %v vs %+v / %v", r1, e1, r2, e2)
	}
}

// TestSolveCtxExpiredDeadlineDegrades pins the graceful-degradation
// contract: an already-expired deadline answers from the reduced-effort
// path, tagged Preempted, without touching the memo, and counts as one
// query.
func TestSolveCtxExpiredDeadlineDegrades(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := Query{Objective: core.Period, Seed: 3}
	res, err := p.SolveCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preempted {
		t.Fatalf("expired-deadline result not tagged Preempted: %+v", res)
	}
	st := p.QueryStats()
	if st.Degraded != 1 || st.Queries != 1 {
		t.Fatalf("Degraded, Queries = %d, %d, want 1, 1", st.Degraded, st.Queries)
	}
	if st.Entries != 0 {
		t.Fatalf("degraded result was memoized: %d entries", st.Entries)
	}

	// A budget-free solve of the same query must get the clean answer.
	clean, err := p.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Preempted {
		t.Fatal("budget-free solve returned a preempted result")
	}
}

// TestAnswerExpiredDeadlineReturnsPublished: once a query's clean answer
// is published, an already-expired deadline answers from it — a memo hit,
// bit-identical to Solve, not preempted — and the degraded path is not
// taken.
func TestAnswerExpiredDeadlineReturnsPublished(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Objective: core.Period, Seed: 3}
	clean, err := p.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err, hit := p.Answer(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || res.Preempted || !reflect.DeepEqual(res, clean) {
		t.Fatalf("expired deadline over a published answer: hit %v, %+v, want a hit on %+v", hit, res, clean)
	}
	if st := p.QueryStats(); st.Degraded != 0 || st.Queries != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 queries, 1 hit, 0 degraded", st)
	}
}

// TestSolveCtxCancelledReturnsCtxErr pins that cancellation (the caller is
// gone) is not degraded-solved: no answer is wanted.
func TestSolveCtxCancelledReturnsCtxErr(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveCtx(ctx, Query{Objective: core.Period}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := p.QueryStats(); st.Degraded != 0 {
		t.Fatalf("cancellation took the degraded path: %+v", st)
	}
}

// TestSolveCtxMidFlightDeadline arms a deadline a slow solve cannot meet:
// the call must come back degraded promptly while the full solve finishes
// in the background and heals the memo for later budget-free queries.
func TestSolveCtxMidFlightDeadline(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	// ExactLimit 1 forces the heuristic; a large annealing budget makes
	// the full solve far outlast the 10ms deadline on any hardware.
	q := Query{Objective: core.Period, ExactLimit: 1, HeurIters: 2_000_000, HeurRestarts: 2, Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := p.SolveCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Preempted || !res.Degraded {
		t.Fatalf("mid-flight deadline result not Preempted+Degraded: %+v", res)
	}
	if res.LowerBound <= 0 || res.LowerBound > res.Value {
		t.Fatalf("degraded lower bound %g not in (0, value %g]", res.LowerBound, res.Value)
	}
	// The background full solve publishes to the memo; a budget-free
	// arrival waits on it and gets the clean result.
	clean, err := p.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Preempted {
		t.Fatal("memoized result is preempted")
	}
	if st := p.QueryStats(); st.Hits != 1 {
		t.Fatalf("budget-free solve did not hit the background entry: %+v", st)
	}
}
