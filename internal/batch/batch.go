// Package batch is the concurrent batch-solving engine on top of
// core.Solve: it fans a slice of independent (instance, request) jobs
// across a bounded pool of worker goroutines, deduplicates identical jobs
// through a memoization cache (see Key and Cache), and returns per-job
// results in input order together with aggregate statistics.
//
// The pool is Each, the one worker pool of the module: it runs fn(i) for
// every index of a work list on a bounded number of goroutines, hands
// indices out in order, and sends the indices not yet started when the
// context is done to a skip function. Pareto sweeps, the differential
// oracle, the experiment drivers and the gateway's fan-outs run on it too.
//
// Solve never reorders: results[i] always answers jobs[i], and a job that
// fails only poisons its own slot — the error is recorded per job and the
// remaining jobs still run. Identical jobs (same canonical key, or same
// plan and request; see Job) are solved once no matter how they
// interleave across workers, which makes batch
// sweeps with repeated subproblems — Pareto frontier builds, experiment
// tables, parameter grids — cheap and, because core.Solve is deterministic
// per request, bit-identical to solving each job sequentially.
//
// SolveCtx is the context-aware form for long-running processes: when the
// context is cancelled mid-batch, jobs not yet started return ctx.Err() in
// their slot (Each's skip), a search in flight stops at its next poll and
// returns the same, and the call returns promptly. A panic inside the
// solver is confined to the
// offending job's slot as an error rather than crashing the process, so a
// server can keep a shared cache alive across poisoned requests.
package batch

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Job is one solver invocation: an instance and the request to solve on
// it. The instance is read, never written; many jobs may share one
// *Instance.
//
// A job may carry its compiled plan, resolved by the caller through the
// Cache the batch runs with (Cache.PlanForJSON); Inst is then the plan's
// Instance. Such a job skips the plan-tier lookup and the canonical keys:
// it is deduplicated by plan identity and request. Compiled reports that
// resolving Plan compiled it, so that Stats counts the compilation once.
type Job struct {
	Inst     *pipeline.Instance
	Req      core.Request
	Plan     *plan.Plan
	Compiled bool
}

// Options configures a Solve call.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// The pool never exceeds the number of jobs.
	Workers int
	// Cache, if non-nil, memoizes results across Solve calls. When nil,
	// Solve uses a private cache scoped to the call (still deduplicating
	// identical jobs within the batch).
	Cache *Cache
}

// JobResult pairs one job's Result with its error; exactly one of the two
// is meaningful, as with core.Solve. A job skipped because the SolveCtx
// context was cancelled carries that context's error.
type JobResult struct {
	Result core.Result
	Err    error
}

// Stats aggregates what a Solve call did.
type Stats struct {
	// Jobs is the number of jobs submitted.
	Jobs int
	// CacheHits counts jobs answered by reusing another job's computation
	// (within this batch, or from a previous batch via a shared Cache).
	CacheHits int
	// Errors counts jobs whose Err is non-nil.
	Errors int
	// PlanCompiles counts compiled plans built fresh for this batch's
	// distinct jobs; PlanReuses counts distinct jobs answered by a plan
	// already in the cache's plan tier (possibly compiled by an earlier
	// batch sharing the Cache).
	PlanCompiles, PlanReuses int
	// Degraded counts successful jobs whose result came from the heuristic
	// because the exact path was abandoned (Result.Degraded).
	Degraded int
	// Methods counts successful jobs per dispatch method, so callers can
	// see how a batch split across the paper's algorithms.
	Methods map[core.Method]int
	// Wall is the elapsed wall-clock time of the whole batch.
	Wall time.Duration
}

// Solve runs every job through core.Solve on a bounded worker pool and
// returns the per-job results in input order plus aggregate stats. It is
// safe for concurrent use (distinct calls may even share a Cache). The
// results are independent copies: mutating one job's mapping never affects
// another job's result or the cache.
func Solve(jobs []Job, opts Options) ([]JobResult, Stats) {
	return SolveCtx(context.Background(), jobs, opts)
}

// SolveCtx is Solve with cancellation: once ctx is done, jobs that have not
// started return ctx.Err() in their slot and the workers drain without
// solving anything further. Results for jobs that completed before the
// cancellation are kept. SolveCtx never returns a nil slice for a non-empty
// batch — every slot is filled with either a result or an error.
func SolveCtx(ctx context.Context, jobs []Job, opts Options) ([]JobResult, Stats) {
	start := time.Now()
	results := make([]JobResult, len(jobs))
	hits := make([]bool, len(jobs))

	var planCompiles, planReuses int64
	cache := opts.Cache
	if cache == nil {
		cache = NewCache()
	}
	solveDeduped(ctx, jobs, opts.Workers, cache, results, hits, &planCompiles, &planReuses)

	stats := Stats{
		Jobs:         len(jobs),
		PlanCompiles: int(planCompiles),
		PlanReuses:   int(planReuses),
		Methods:      make(map[core.Method]int),
		Wall:         time.Since(start),
	}
	for i := range results {
		if hits[i] {
			stats.CacheHits++
		}
		if results[i].Err != nil {
			stats.Errors++
		} else {
			stats.Methods[results[i].Result.Method]++
			if results[i].Result.Degraded {
				stats.Degraded++
			}
		}
	}
	return results, stats
}

// solvePlanned answers a group of identical jobs through the cache: it
// takes the group's plan — the one the jobs carry, or else the plan tier's
// for their instance triple, compiled on first sight — and issues the
// request as a query against it, which the cache's result memo answers
// when the job was solved before. This is bit-identical to core.Solve —
// Compile performs the same validation core.Solve would, and plan queries
// dispatch through core.SolvePrepared — and a panic is confined to the
// job's slot (the memos publish panics as errors rather than unwinding the
// worker). hit reports a memoized answer: the query's, or the plan tier's
// memoized compilation error.
//
// The query runs under ctx, so a solve stops when ctx ends.
func solvePlanned(ctx context.Context, cache *Cache, jobs []Job, group []int, planCompiles, planReuses *int64) (core.Result, error, bool) {
	job := &jobs[group[0]]
	pl, planHit := job.Plan, true
	var err error
	if pl == nil {
		pl, err, planHit = cache.PlanFor(job.Inst, job.Req.Rule, job.Req.Model)
	}
	for _, i := range group {
		planHit = planHit && !jobs[i].Compiled
	}
	if planHit {
		atomic.AddInt64(planReuses, 1)
	} else {
		atomic.AddInt64(planCompiles, 1)
	}
	if err != nil {
		return core.Result{}, err, planHit
	}
	return pl.Answer(ctx, plan.QueryOf(job.Req))
}

// groupKey identifies the jobs one computation answers: a job carrying
// its plan by the plan and its request, any other by its canonical Key.
type groupKey struct {
	plan *plan.Plan
	key  string
}

func groupOf(job *Job) groupKey {
	if job.Plan != nil {
		return groupKey{job.Plan, requestKey(job.Req)}
	}
	return groupKey{key: Key(job.Inst, job.Req)}
}

// solveDeduped groups duplicate jobs (see groupKey) before dispatch, so
// one work item per distinct subproblem reaches the pool and a duplicate
// never parks a worker behind its group's in-flight computation (no
// head-of-line blocking when duplicated slow jobs mix with unique fast
// ones). The cache still single-flights across concurrent Solve calls that
// share it.
//
// Every group is answered through the cache's plan tier: the job's
// instance is compiled once per distinct (instance, rule, comm) triple and
// every query against it — this batch's and later ones' — reuses the
// compiled state and its memoized answers. planCompiles/planReuses tally
// fresh compilations versus plan-tier hits for Stats, one per group: a
// group of jobs that carry their plan counts a compilation when one of
// its jobs compiled the plan.
func solveDeduped(ctx context.Context, jobs []Job, workers int, cache *Cache, results []JobResult, hits []bool, planCompiles, planReuses *int64) {
	// A group starts as a full-capacity window of one element of self, so
	// the common singleton group allocates nothing; a duplicate's append
	// copies the group out.
	self := make([]int, len(jobs))
	groups := make([][]int, 0, len(jobs))
	at := make(map[groupKey]int, len(jobs))
	for i := range jobs {
		k := groupOf(&jobs[i])
		if g, ok := at[k]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		self[i] = i
		at[k] = len(groups)
		groups = append(groups, self[i:i+1:i+1])
	}
	Each(ctx, len(groups), workers, func(g int) {
		res, err, hit := solvePlanned(ctx, cache, jobs, groups[g], planCompiles, planReuses)
		for n, i := range groups[g] {
			jr := JobResult{Err: err}
			if err == nil {
				// The plan already returned an independent copy; the
				// other slots of the group need their own so mutating
				// one job's mapping never leaks into a duplicate's.
				if n == 0 {
					jr.Result = res
				} else {
					jr.Result = res.Clone()
				}
			}
			results[i] = jr
			hits[i] = hit || n > 0
		}
	}, func(g int) {
		for _, i := range groups[g] {
			results[i] = JobResult{Err: ctx.Err()}
		}
	})
}
