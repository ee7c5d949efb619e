package batch

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestSolveBudgetDegrades pins the degraded-mode contract end to end on
// jobs clamped to a work ceiling of one step (core.Request.Clamp). The
// NP-hard job's search has no budget left and answers a mapping tagged
// Degraded, with no error: graceful degradation, never silent, and
// core.Solve's answer to the clamped request bit for bit. The polynomial
// job is never limited: it answers in full. Both answers are pure
// functions of their requests, so the cache keeps both: a repeat is all
// hits, and the unclamped NP-hard job, a different request, solves afresh.
func TestSolveBudgetDegrades(t *testing.T) {
	mi := pipeline.MotivatingExample()
	jobs := []Job{
		{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Period, Seed: 1}},  // NP-hard on Figure 1
		{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Latency, Seed: 1}}, // Theorem 12
	}
	clamped := make([]Job, len(jobs))
	want := make([]core.Result, len(jobs))
	for i, j := range jobs {
		clamped[i] = Job{Inst: j.Inst, Req: j.Req.Clamp(1)}
		var err error
		if want[i], err = core.Solve(j.Inst, clamped[i].Req); err != nil {
			t.Fatal(err)
		}
	}
	full, err := core.Solve(&mi, jobs[0].Req)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	results, stats := Solve(clamped, Options{Cache: cache})
	if r := results[0]; r.Err != nil || !r.Result.Degraded || !reflect.DeepEqual(r.Result, want[0]) || r.Result.Value < full.Value {
		t.Fatalf("NP-hard job clamped to one step: %+v, want core.Solve's degraded %+v, never below the optimum %g", r, want[0], full.Value)
	}
	if r := results[1]; r.Err != nil || r.Result.Degraded || !reflect.DeepEqual(r.Result, want[1]) {
		t.Fatalf("polynomial job clamped to one step: %+v, want core.Solve's %+v", r, want[1])
	}
	if stats.Degraded != 1 || stats.Errors != 0 {
		t.Fatalf("stats.Degraded, Errors = %d, %d, want 1, 0", stats.Degraded, stats.Errors)
	}

	if _, stats := Solve(clamped, Options{Cache: cache}); stats.CacheHits != len(clamped) || stats.Degraded != 1 {
		t.Fatalf("repeat of the clamped jobs: %d cache hits, %d degraded, want %d, 1", stats.CacheHits, stats.Degraded, len(clamped))
	}
	results, stats = Solve(jobs[:1], Options{Cache: cache})
	if r := results[0]; r.Err != nil || stats.CacheHits != 0 || !reflect.DeepEqual(r.Result, full) {
		t.Fatalf("unclamped NP-hard job: %+v, %d cache hits, want a fresh solve answering %+v", r, stats.CacheHits, full)
	}
}

// TestSolveBudgetDegradedStats pins that Stats.Degraded counts heuristic
// results on NP-hard cells (deterministic ExactLimit degradation), which
// are cacheable.
func TestSolveBudgetDegradedStats(t *testing.T) {
	mi := pipeline.MotivatingExample()
	jobs := []Job{{Inst: &mi, Req: core.Request{
		Rule: mapping.Interval, Objective: core.Period, ExactLimit: 1, Seed: 1, HeurIters: 50, HeurRestarts: 1,
	}}}
	cache := NewCache()
	results, stats := Solve(jobs, Options{Cache: cache})
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if !results[0].Result.Degraded {
		t.Fatalf("want Degraded, got %+v", results[0].Result)
	}
	if stats.Degraded != 1 {
		t.Fatalf("stats Degraded = %d, want 1", stats.Degraded)
	}
	if lb := results[0].Result.LowerBound; lb <= 0 || lb > results[0].Result.Value {
		t.Fatalf("degraded lower bound %g not in (0, %g]", lb, results[0].Result.Value)
	}
	// Deterministic degradation is cache-safe: the repeat is a hit.
	_, stats2 := Solve(jobs, Options{Cache: cache})
	if stats2.CacheHits != 1 {
		t.Fatalf("deterministic degraded result was not cached: %+v", stats2)
	}
	if stats2.Degraded != 1 {
		t.Fatalf("cached degraded result lost its flag: %+v", stats2)
	}
}
