package batch

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestSolveBudgetDegrades pins the degraded-mode contract end to end on
// a per-job budget that has run out before any solve starts. The NP-hard
// job's search stops at its first poll and answers a mapping tagged
// Preempted and Degraded, with no error: graceful degradation, never
// silent. The polynomial job is never stopped: it answers in full. A
// preempted result must not poison the cache: a budget-free batch over
// the same cache solves that job afresh, while the polynomial answer is
// kept and hits.
func TestSolveBudgetDegrades(t *testing.T) {
	mi := pipeline.MotivatingExample()
	jobs := []Job{
		{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Period, Seed: 1}},  // NP-hard on Figure 1
		{Inst: &mi, Req: core.Request{Rule: mapping.Interval, Objective: core.Latency, Seed: 1}}, // Theorem 12
	}
	want := make([]core.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = core.Solve(j.Inst, j.Req); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewCache()
	results, stats := Solve(jobs, Options{Cache: cache, SolveBudget: time.Nanosecond})
	if r := results[0]; r.Err != nil || !r.Result.Preempted || !r.Result.Degraded {
		t.Fatalf("NP-hard job under a 1ns budget: %+v, want Preempted and Degraded", r)
	}
	if r := results[1]; r.Err != nil || !reflect.DeepEqual(r.Result, want[1]) {
		t.Fatalf("polynomial job under a 1ns budget: %+v, want core.Solve's %+v", r, want[1])
	}
	if stats.Preempted != 1 || stats.Errors != 0 {
		t.Fatalf("stats.Preempted, Errors = %d, %d, want 1, 0", stats.Preempted, stats.Errors)
	}

	// Cache purity: the preempted result was not retained, so the NP-hard
	// job solves afresh without a budget and comes back clean; the
	// polynomial answer was retained.
	results2, stats2 := Solve(jobs, Options{Cache: cache})
	for i, r := range results2 {
		if r.Err != nil || !reflect.DeepEqual(r.Result, want[i]) {
			t.Fatalf("budget-free job %d: %+v, want core.Solve's %+v", i, r, want[i])
		}
	}
	if stats2.CacheHits != 1 || stats2.Preempted != 0 {
		t.Fatalf("budget-free pass: %d cache hits, %d preempted, want 1, 0", stats2.CacheHits, stats2.Preempted)
	}

	// Clean results ARE retained: a third pass is all cache hits.
	if _, stats3 := Solve(jobs, Options{Cache: cache}); stats3.CacheHits != len(jobs) {
		t.Fatalf("third pass: %d cache hits, want %d", stats3.CacheHits, len(jobs))
	}
}

// TestSolveBudgetDegradedStats pins that Stats.Degraded counts heuristic
// results on NP-hard cells even without a wall-clock budget (deterministic
// ExactLimit degradation), which IS cacheable.
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
	if !results[0].Result.Degraded || results[0].Result.Preempted {
		t.Fatalf("want Degraded && !Preempted, got %+v", results[0].Result)
	}
	if stats.Degraded != 1 || stats.Preempted != 0 {
		t.Fatalf("stats Degraded/Preempted = %d/%d, want 1/0", stats.Degraded, stats.Preempted)
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
