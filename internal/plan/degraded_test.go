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

// expired returns a context whose deadline has already passed.
func expired(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// TestSolveCtxExpiredDeadline pins what a deadline that has passed before
// the solve starts does. The search of an NP-hard cell stops at its first
// poll and answers the deadline's error, and nothing is memoized: a solve
// of the same query under a live context then solves afresh and gets
// core.Solve's answer. A polynomial cell is never stopped: it answers in
// full, and that answer is memoized.
func TestSolveCtxExpiredDeadline(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Objective: core.Period, Seed: 3} // NP-hard on Figure 1
	if _, err := p.SolveCtx(expired(t), q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
	if st := p.QueryStats(); st.Queries != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 query and no memoized entry", st)
	}
	clean, err := p.Solve(q)
	want, werr := core.Solve(&mi, p.Request(q))
	if err != nil || werr != nil || !reflect.DeepEqual(clean, want) {
		t.Fatalf("solve after an expired one: %+v, %v; core.Solve %+v, %v", clean, err, want, werr)
	}
	if st := p.QueryStats(); st.Hits != 0 {
		t.Fatalf("the solve after an expired one hit a kept entry: %+v", st)
	}

	poly := Query{Objective: core.Latency} // Theorem 12 on Figure 1
	res, err := p.SolveCtx(expired(t), poly)
	want, werr = core.Solve(&mi, p.Request(poly))
	if err != nil || werr != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("polynomial cell under an expired deadline: %+v, %v; core.Solve %+v, %v", res, err, want, werr)
	}
	if st := p.QueryStats(); st.Entries != 2 {
		t.Fatalf("polynomial answer not memoized: %+v", st)
	}
}

// TestAnswerExpiredDeadlineReturnsPublished: once a query's answer is
// published, a call whose deadline has already passed answers from it —
// a memo hit, bit-identical to Solve.
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
	res, err, hit := p.Answer(expired(t), q)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || !reflect.DeepEqual(res, clean) {
		t.Fatalf("expired deadline over a published answer: hit %v, %+v, want a hit on %+v", hit, res, clean)
	}
	if st := p.QueryStats(); st.Queries != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 queries, 1 hit", st)
	}
}

// TestSolveCtxCancelledReturnsCtxErr pins that a cancelled context (the
// caller is gone) answers its error, not a mapping, and leaves nothing in
// the memo.
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
	if st := p.QueryStats(); st.Entries != 0 {
		t.Fatalf("a cancelled solve was memoized: %+v", st)
	}
}

// slowQuery forces the heuristic on Figure 1 with an annealing budget
// that takes about 0.2 s on a 2-vCPU x86 host.
var slowQuery = Query{Objective: core.Period, ExactLimit: 1, HeurIters: 1_000_000, HeurRestarts: 2, Seed: 9}

// TestSolveCtxMidFlightDeadline arms a deadline the slow query cannot
// meet: the annealer stops at its next poll and the call comes back
// promptly with the deadline's error. Nothing is memoized, so a solve of
// the query under a live context runs in full itself.
func TestSolveCtxMidFlightDeadline(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.SolveCtx(ctx, slowQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-flight deadline: %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("a 10ms deadline answered after %v", took)
	}
	if st := p.QueryStats(); st.Entries != 0 {
		t.Fatalf("a stopped solve was memoized: %+v", st)
	}
	clean, err, hit := p.Answer(context.Background(), slowQuery)
	want, werr := core.Solve(&mi, p.Request(slowQuery))
	if err != nil || werr != nil || hit || !reflect.DeepEqual(clean, want) {
		t.Fatalf("solve after a stopped one: %+v, %v, hit %v; want a fresh full solve answering %+v", clean, err, hit, want)
	}
}

// TestSharedEntryOwnerCancelled runs two identical queries at once and
// cancels the one that installed the memo entry mid-solve: the installer
// gets its context's error, the waiter solves the query afresh under its
// own context and gets core.Solve's answer, and the memo ends up holding
// that one answer.
func TestSharedEntryOwnerCancelled(t *testing.T) {
	mi := pipeline.MotivatingExample()
	p, err := Compile(&mi, mapping.Interval, pipeline.Overlap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan error, 1)
	go func() {
		_, err := p.SolveCtx(ctx, slowQuery)
		owner <- err
	}()
	waitUntil(t, func() bool { return p.memo.Len() == 1 })
	waiter := make(chan error, 1)
	var got core.Result
	go func() {
		var err error
		got, err = p.Solve(slowQuery)
		waiter <- err
	}()
	waitUntil(t, func() bool { return p.memo.Stats().Hits == 1 })
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("installer: %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(&mi, p.Request(slowQuery))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("waiter answered %+v; core.Solve %+v, %v", got, want, err)
	}
	if n := p.memo.Len(); n != 1 {
		t.Fatalf("memo holds %d entries, want the one answer", n)
	}
	if again, err, hit := p.Answer(context.Background(), slowQuery); err != nil || !hit || !reflect.DeepEqual(again, want) {
		t.Fatalf("repeat: hit %v, %+v, %v; want a hit on core.Solve's answer", hit, again, err)
	}
}

// waitUntil polls cond until it holds or a generous deadline passes.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
