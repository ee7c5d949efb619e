package batch

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// fig1Jobs builds a mixed workload over the motivating example: the four
// Section 2 headline requests plus an energy sweep, several of them exact
// duplicates.
func fig1Jobs(inst *pipeline.Instance) []Job {
	reqs := []core.Request{
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Latency},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(inst, 2)},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}, // dup of 0
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(inst, 3)},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(inst, 2)}, // dup of 2
	}
	jobs := make([]Job, len(reqs))
	for i, r := range reqs {
		jobs[i] = Job{Inst: inst, Req: r}
	}
	return jobs
}

// TestMatchesSequentialInOrder is the engine's core contract: results come
// back in input order and are bit-identical to calling core.Solve job by
// job.
func TestMatchesSequentialInOrder(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)

	want := make([]JobResult, len(jobs))
	for i, job := range jobs {
		res, err := core.Solve(job.Inst, job.Req)
		want[i] = JobResult{Result: res, Err: err}
	}
	for _, workers := range []int{1, 2, 8} {
		got, stats := Solve(jobs, Options{Workers: workers})
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(got), len(jobs))
		}
		for i := range got {
			if !errors.Is(got[i].Err, want[i].Err) {
				t.Fatalf("workers=%d job %d: error %v, sequential %v", workers, i, got[i].Err, want[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Errorf("workers=%d job %d: result differs from sequential Solve\ngot  %+v\nwant %+v",
					workers, i, got[i].Result, want[i].Result)
			}
		}
		if stats.Jobs != len(jobs) {
			t.Errorf("workers=%d: stats.Jobs = %d, want %d", workers, stats.Jobs, len(jobs))
		}
	}
}

// TestCacheDedup checks that exact duplicate jobs are solved once and the
// hits show up in the stats.
func TestCacheDedup(t *testing.T) {
	inst := pipeline.MotivatingExample()
	req := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
		PeriodBounds: core.UniformBounds(&inst, 2)}
	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Inst: &inst, Req: req}
	}
	results, stats := Solve(jobs, Options{Workers: 8})
	if stats.CacheHits != n-1 {
		t.Errorf("CacheHits = %d, want %d", stats.CacheHits, n-1)
	}
	if stats.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", stats.Errors)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Result, results[0].Result) {
			t.Fatalf("job %d result differs from job 0", i)
		}
	}
	// The copies must be independent: mutating one mapping must not leak
	// into another job's result.
	results[0].Result.Mapping.Apps[0].Intervals[0].Proc = 99
	if results[1].Result.Mapping.Apps[0].Intervals[0].Proc == 99 {
		t.Error("cache hit shares mapping memory with another job")
	}
	total := 0
	for _, c := range stats.Methods {
		total += c
	}
	if total != n || len(stats.Methods) != 1 {
		t.Errorf("Methods = %v, want one method counted %d times", stats.Methods, n)
	}
}

// TestErrorPropagation mixes solvable, infeasible and malformed jobs and
// checks each error lands on its own slot without stopping the batch.
func TestErrorPropagation(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := []Job{
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Objective: core.Period}},
		// Energy without period bounds: ErrUnsupported (Section 3.5).
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Objective: core.Energy}},
		// Period bound below the optimum: ErrInfeasible.
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&inst, 0.01)}},
		// Wrong bounds arity: plain validation error.
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Objective: core.Energy,
			PeriodBounds: []float64{1}}},
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Objective: core.Latency}},
	}
	results, stats := Solve(jobs, Options{Workers: 4})
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good jobs failed: %v, %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, core.ErrUnsupported) {
		t.Errorf("job 1 error = %v, want ErrUnsupported", results[1].Err)
	}
	if !errors.Is(results[2].Err, core.ErrInfeasible) {
		t.Errorf("job 2 error = %v, want ErrInfeasible", results[2].Err)
	}
	if results[3].Err == nil {
		t.Error("job 3 with mismatched bounds arity did not fail")
	}
	if stats.Errors != 3 {
		t.Errorf("stats.Errors = %d, want 3", stats.Errors)
	}
	// Failed slots carry the zero Result, exactly like sequential Solve
	// (nil mapping slice, not an empty one).
	for _, i := range []int{1, 2, 3} {
		if !reflect.DeepEqual(results[i].Result, core.Result{}) {
			t.Errorf("job %d: failed slot Result = %+v, want zero value", i, results[i].Result)
		}
	}
}

// TestSharedCacheAcrossBatches reuses one Cache over two Solve calls: the
// second batch must be answered entirely from the cache.
func TestSharedCacheAcrossBatches(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)
	cache := NewCache()
	first, s1 := Solve(jobs, Options{Cache: cache, Workers: 4})
	second, s2 := Solve(jobs, Options{Cache: cache, Workers: 4})
	if s2.CacheHits != len(jobs) {
		t.Errorf("second batch CacheHits = %d, want %d", s2.CacheHits, len(jobs))
	}
	if s1.CacheHits >= len(jobs) {
		t.Errorf("first batch CacheHits = %d, want < %d", s1.CacheHits, len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Fatalf("job %d: cached result differs from first run", i)
		}
	}
	if cache.Len() == 0 {
		t.Error("cache is empty after two batches")
	}
}

// TestDedupGroupsBeforeDispatch checks duplicates are collapsed before
// they reach the pool: a batch of N identical jobs on a single worker
// performs exactly one computation, so no worker ever parks behind an
// in-flight duplicate.
func TestDedupGroupsBeforeDispatch(t *testing.T) {
	inst := pipeline.MotivatingExample()
	req := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Inst: &inst, Req: req}
	}
	cache := NewCache()
	_, stats := Solve(jobs, Options{Workers: 1, Cache: cache})
	if stats.CacheHits != len(jobs)-1 {
		t.Errorf("CacheHits = %d, want %d", stats.CacheHits, len(jobs)-1)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d keys, want 1", cache.Len())
	}
}

// TestEmptyBatch must not hang or panic.
func TestEmptyBatch(t *testing.T) {
	results, stats := Solve(nil, Options{})
	if len(results) != 0 || stats.Jobs != 0 {
		t.Fatalf("empty batch: %d results, stats %+v", len(results), stats)
	}
}

// TestKeyDiscriminates checks the canonical key separates every request
// field that changes solver behaviour, including bound nil-ness, and is
// stable for identical inputs.
func TestKeyDiscriminates(t *testing.T) {
	inst := pipeline.MotivatingExample()
	base := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}
	if Key(&inst, base) != Key(&inst, base) {
		t.Fatal("identical jobs got different keys")
	}
	inst2 := inst.Clone()
	if Key(&inst, base) != Key(&inst2, base) {
		t.Fatal("cloned instance got a different key")
	}
	variants := []core.Request{
		{Rule: mapping.OneToOne, Model: pipeline.Overlap, Objective: core.Period},
		{Rule: mapping.Interval, Model: pipeline.NoOverlap, Objective: core.Period},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Latency},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, PeriodBounds: []float64{1, 2}},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, LatencyBounds: []float64{1, 2}},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, EnergyBudget: 10},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, Seed: 7},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, ExactLimit: 10},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, HeurIters: 10},
		{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period, HeurRestarts: 10},
	}
	seen := map[string]int{Key(&inst, base): -1}
	for i, v := range variants {
		k := Key(&inst, v)
		if j, dup := seen[k]; dup {
			t.Errorf("request variants %d and %d collide", i, j)
		}
		seen[k] = i
	}
	inst3 := inst.Clone()
	inst3.Apps[0].Stages[0].Work++
	if _, dup := seen[Key(&inst3, base)]; dup {
		t.Error("changed instance collides with an existing key")
	}
}

// TestConcurrentStress hammers one shared instance from many workers; run
// with -race this is the pool's data-race check (core.Solve must treat the
// instance as read-only).
func TestConcurrentStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst := workload.MustInstance(rng, workload.Config{
		Apps: 2, MinStages: 2, MaxStages: 3, Procs: 8, Modes: 2,
		Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
	})
	var jobs []Job
	for x := 1; x <= 12; x++ {
		jobs = append(jobs, Job{Inst: &inst, Req: core.Request{
			Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&inst, float64(x)),
		}})
		jobs = append(jobs, Job{Inst: &inst, Req: core.Request{
			Rule: mapping.OneToOne, Model: pipeline.Overlap, Objective: core.Period,
		}})
	}
	results, stats := Solve(jobs, Options{Workers: 8})
	// All one-to-one period jobs are identical: 11 dedup hits expected.
	if stats.CacheHits < 11 {
		t.Errorf("CacheHits = %d, want >= 11", stats.CacheHits)
	}
	for i, r := range results {
		if r.Err != nil && !errors.Is(r.Err, core.ErrInfeasible) {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}

// BenchmarkCacheHit times a warm 8-job batch, every job a cache hit: the
// steady-state serving path of a replica (canonical keys, plan-tier hit,
// memoized query, defensive copies). distinct-instances gives every job its
// own instance; shared-instance asks 8 queries of one instance.
func BenchmarkCacheHit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := workload.Config{
		Apps: 2, MinStages: 2, MaxStages: 3, Procs: 6, Modes: 2,
		Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
	}
	shared := workload.MustInstance(rng, cfg)
	var distinct, sameInst []Job
	for x := 0; x < 8; x++ {
		inst := workload.MustInstance(rng, cfg)
		distinct = append(distinct, Job{Inst: &inst, Req: core.Request{
			Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}})
		sameInst = append(sameInst, Job{Inst: &shared, Req: core.Request{
			Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&shared, float64(4+x))}})
	}
	for _, bc := range []struct {
		name string
		jobs []Job
	}{{"distinct-instances", distinct}, {"shared-instance", sameInst}} {
		b.Run(bc.name, func(b *testing.B) {
			cache := NewCacheCap(256)
			Solve(bc.jobs, Options{Cache: cache, Workers: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st := Solve(bc.jobs, Options{Cache: cache, Workers: 1}); st.CacheHits != len(bc.jobs) {
					b.Fatalf("%d hits of %d", st.CacheHits, len(bc.jobs))
				}
			}
		})
	}
}
