package batch

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// seedJob is a cheap job on inst whose request seed makes its canonical
// key distinct; the seed only steers the heuristic, so every seedJob has
// the same answer.
func seedJob(inst *pipeline.Instance, n int) Job {
	return Job{Inst: inst, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap,
		Objective: core.Period, Seed: int64(n)}}
}

// solveVia solves one job through c and reports whether the cache answered.
func solveVia(t *testing.T, c *Cache, job Job) (JobResult, bool) {
	t.Helper()
	results, stats := Solve([]Job{job}, Options{Cache: c, Workers: 1})
	return results[0], stats.CacheHits == 1
}

// TestCacheCapNeverExceeded solves far more distinct jobs than the cap and
// checks the invariant holds after every job, with evictions counted.
func TestCacheCapNeverExceeded(t *testing.T) {
	const cap = 50
	inst := pipeline.MotivatingExample()
	c := NewCacheCap(cap)
	for n := 0; n < 10*cap; n++ {
		solveVia(t, c, seedJob(&inst, n))
		if got := c.Len(); got > cap {
			t.Fatalf("after %d jobs: Len = %d exceeds cap %d", n+1, got, cap)
		}
	}
	s := c.Stats()
	if s.Entries > cap || s.Entries == 0 {
		t.Errorf("Stats.Entries = %d, want in (0, %d]", s.Entries, cap)
	}
	if s.Evictions < int64(9*cap) {
		t.Errorf("Evictions = %d, want >= %d", s.Evictions, 9*cap)
	}
	if s.Misses != int64(10*cap) {
		t.Errorf("Misses = %d, want %d", s.Misses, 10*cap)
	}
	if s.Cap != cap || c.Cap() != cap {
		t.Errorf("Stats.Cap = %d, Cap() = %d, want %d", s.Cap, c.Cap(), cap)
	}
}

// TestCacheLRUOrder checks that touching an entry protects it from
// eviction ahead of colder entries.
func TestCacheLRUOrder(t *testing.T) {
	inst := pipeline.MotivatingExample()
	c := NewCacheCap(2)
	solveVia(t, c, seedJob(&inst, 1))
	solveVia(t, c, seedJob(&inst, 2))
	solveVia(t, c, seedJob(&inst, 1)) // touch 1: now 2 is the LRU entry
	solveVia(t, c, seedJob(&inst, 3)) // evicts 2
	if _, hit := solveVia(t, c, seedJob(&inst, 1)); !hit {
		t.Error("recently used job 1 was evicted")
	}
	if _, hit := solveVia(t, c, seedJob(&inst, 2)); hit {
		t.Error("least recently used job 2 survived past the cap")
	}
}

// TestCacheSmallCapKeepsEveryShardUseful is the small-cap regression: a
// cache capped below its old shard count once handed most shards a zero
// quota, so most keys were evicted as soon as they were published. The
// memo is a single LRU now; the test pins that a small cap still retains
// exactly cap entries and stays within it under churn.
func TestCacheSmallCapKeepsEveryShardUseful(t *testing.T) {
	const cap = 5
	inst := pipeline.MotivatingExample()
	c := NewCacheCap(cap)
	for n := 0; n < cap; n++ {
		solveVia(t, c, seedJob(&inst, n))
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions while holding %d entries under cap %d", ev, cap, cap)
	}
	if got := c.Len(); got != cap {
		t.Fatalf("Len = %d after %d distinct jobs, want %d", got, cap, cap)
	}
	for n := 0; n < cap; n++ {
		if _, hit := solveVia(t, c, seedJob(&inst, n)); !hit {
			t.Errorf("job %d: miss on a retained entry", n)
		}
	}
	for n := 0; n < 50; n++ {
		solveVia(t, c, seedJob(&inst, 100+n))
		if got := c.Len(); got > cap {
			t.Fatalf("Len = %d exceeds small cap %d", got, cap)
		}
	}
}

// TestCacheCapOne pins the degenerate single-entry cache: it must behave
// as a 1-entry LRU, never exceed its cap, and still answer repeats.
func TestCacheCapOne(t *testing.T) {
	inst := pipeline.MotivatingExample()
	c := NewCacheCap(1)
	solveVia(t, c, seedJob(&inst, 1))
	if _, hit := solveVia(t, c, seedJob(&inst, 1)); !hit {
		t.Error("sole entry not retained at cap 1")
	}
	solveVia(t, c, seedJob(&inst, 2))
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d at cap 1", got)
	}
	if _, hit := solveVia(t, c, seedJob(&inst, 2)); !hit {
		t.Error("newest entry evicted in favour of the displaced one")
	}
}

// TestCacheUnboundedByDefault pins NewCache's unbounded behaviour.
func TestCacheUnboundedByDefault(t *testing.T) {
	inst := pipeline.MotivatingExample()
	c := NewCache()
	var jobs []Job
	for n := 0; n < 500; n++ {
		jobs = append(jobs, seedJob(&inst, n))
	}
	Solve(jobs, Options{Cache: c})
	if got := c.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("Evictions = %d on an unbounded cache", ev)
	}
}

// poisonPlan makes every query on the cached plan for job's instance panic
// inside the solver, by corrupting the plan's private instance the way no
// API caller can (a nil speeds slice makes the solver index out of range).
func poisonPlan(t *testing.T, c *Cache, job Job) {
	t.Helper()
	pl, err, _ := c.PlanFor(job.Inst, job.Req.Rule, job.Req.Model)
	if err != nil {
		t.Fatal(err)
	}
	pl.Instance().Platform.Processors[0].Speeds = nil
}

// TestCachePanicDoesNotDeadlockWaiters is the panic-publication
// regression: a solver panic must publish the memo entry, so every
// concurrent batch waiting on the key unblocks with the panic as its
// error instead of hanging.
func TestCachePanicDoesNotDeadlockWaiters(t *testing.T) {
	inst := pipeline.MotivatingExample()
	c := NewCache()
	job := seedJob(&inst, 7)
	poisonPlan(t, c, job)

	const batches = 8
	errs := make(chan error, batches)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, _ := Solve([]Job{job}, Options{Cache: c})
			errs <- results[0].Err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("batch error = %v, want the re-published panic", err)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != batches-1 {
		t.Errorf("poisoned key computed %d times (%d hits), want once", s.Misses, s.Hits)
	}
}

// TestSolvePanicConfinedToSlot checks a panic inside the solver surfaces as
// its own job's error (with the panic value in the message) while the
// other jobs of the batch, and later batches on the same cache, keep
// working.
func TestSolvePanicConfinedToSlot(t *testing.T) {
	inst := pipeline.MotivatingExample()
	other := inst.Clone()
	other.Apps[0].Weight = 2 // a distinct instance, hence a distinct plan
	cache := NewCache()
	bad := seedJob(&inst, 1)
	poisonPlan(t, cache, bad)
	good := seedJob(&other, 1)
	results, stats := Solve([]Job{bad, good}, Options{Cache: cache})
	if err := results[0].Err; err == nil || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("poisoned slot error = %v, want the solver panic", err)
	}
	if results[1].Err != nil || stats.Errors != 1 {
		t.Fatalf("panic leaked beyond its slot: %v (%d errors)", results[1].Err, stats.Errors)
	}
	if results, _ := Solve([]Job{good}, Options{Cache: cache}); results[0].Err != nil {
		t.Fatalf("batch on a cache with a poisoned key failed: %v", results[0].Err)
	}
}

// TestCacheReturnsIndependentCopies is the aliasing regression: mutating a
// Result returned through the cache must not corrupt the memoized mapping
// observed by a later hit, nor a duplicate's slot in the same batch.
func TestCacheReturnsIndependentCopies(t *testing.T) {
	inst := pipeline.MotivatingExample()
	job := seedJob(&inst, 3)
	want, err := core.Solve(job.Inst, job.Req)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	first, _ := solveVia(t, c, job)
	first.Result.Mapping.Apps[0].Intervals[0].Proc = 99
	first.Result.Value = -1

	second, hit := solveVia(t, c, job)
	if second.Err != nil || !hit {
		t.Fatalf("second lookup: err=%v hit=%v", second.Err, hit)
	}
	if !reflect.DeepEqual(second.Result, want) {
		t.Errorf("cache hit corrupted by caller mutation:\ngot  %+v\nwant %+v", second.Result, want)
	}
	second.Result.Mapping.Apps[0].Intervals[0].Mode = 42
	if third, _ := solveVia(t, c, job); !reflect.DeepEqual(third.Result, want) {
		t.Error("second mutation leaked into the memoized value")
	}

	// Two slots of one batch answered by one solve.
	dup := seedJob(&inst, 4)
	results, _ := Solve([]Job{dup, dup}, Options{Cache: NewCache(), Workers: 1})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("duplicate slot %d: %v", i, r.Err)
		}
	}
	results[0].Result.Mapping.Apps[0].Intervals[0].Proc = 99
	results[0].Result.Metrics.AppPeriods[0] = -1
	results[0].Result.Metrics.AppLatencies[0] = -1
	if want, _ := core.Solve(dup.Inst, dup.Req); !reflect.DeepEqual(results[1].Result, want) {
		t.Errorf("mutating slot 0 leaked into its duplicate:\ngot  %+v\nwant %+v", results[1].Result, want)
	}
}

// TestRecompiledPlanMissesOldAnswers pins the identity rule of the result
// memo: a plan evicted from the plan tier and compiled again is a new plan,
// so it does not read the answers its predecessor left in the result memo.
func TestRecompiledPlanMissesOldAnswers(t *testing.T) {
	inst := func(w float64) *pipeline.Instance {
		in := pipeline.MotivatingExample()
		in.Apps[0].Weight = w // distinct plan keys
		return &in
	}
	a, b, cc := inst(1), inst(2), inst(3)
	c := NewCacheCap(2)
	job := seedJob(a, 3)
	want, err := core.Solve(job.Inst, job.Req)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := solveVia(t, c, job); hit {
		t.Fatal("first ask of plan A hit")
	}
	for _, in := range []*pipeline.Instance{b, cc} {
		if _, err, _ := c.PlanFor(in, mapping.Interval, pipeline.Overlap); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Plans.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after compiling B and C: %d plan evictions, %d memoized answers, want 1 and 1", st.Plans.Evictions, st.Entries)
	}
	res, hit := solveVia(t, c, job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if hit {
		t.Error("recompiled plan A hit its predecessor's answer")
	}
	if !reflect.DeepEqual(res.Result, want) {
		t.Errorf("recompiled plan A answered %+v, want %+v", res.Result, want)
	}
}

// TestBoundedCacheConcurrentMixedWorkload hammers a small bounded cache
// from many goroutines with overlapping key ranges (run with -race). The
// entry cap must hold at every probe and afterwards, and results must stay
// consistent per key, errors included.
func TestBoundedCacheConcurrentMixedWorkload(t *testing.T) {
	const cap = 64
	inst := pipeline.MotivatingExample()
	want, err := core.Solve(&inst, seedJob(&inst, 0).Req)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheCap(cap)
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if got := c.Len(); got > cap {
					t.Errorf("Len = %d exceeds cap %d under load", got, cap)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 100; n++ {
				k := rng.Intn(3 * cap)
				job := seedJob(&inst, k)
				if k%7 == 0 {
					// Energy without period bounds: a stable ErrUnsupported.
					job.Req.Objective = core.Energy
				}
				results, _ := Solve([]Job{job}, Options{Cache: c, Workers: 1})
				r := results[0]
				if k%7 == 0 {
					if !errors.Is(r.Err, core.ErrUnsupported) {
						t.Errorf("key %d: err = %v, want ErrUnsupported", k, r.Err)
					}
				} else if r.Err != nil || r.Result.Value != want.Value {
					t.Errorf("key %d: value %g err %v, want %g", k, r.Result.Value, r.Err, want.Value)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	probeWG.Wait()
	if got := c.Len(); got > cap {
		t.Fatalf("final Len = %d exceeds cap %d", got, cap)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Error("no evictions under a workload 3x the cap")
	}
}

// TestSolveCtxPreCancelled checks a cancelled context marks every slot with
// ctx.Err() without running the solver.
func TestSolveCtxPreCancelled(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats := SolveCtx(ctx, jobs, Options{Workers: 2})
	if stats.Errors != len(jobs) {
		t.Errorf("Errors = %d, want %d", stats.Errors, len(jobs))
	}
	for i, r := range results {
		if r.Err != context.Canceled {
			t.Errorf("job %d: Err = %v, want context.Canceled", i, r.Err)
		}
		if !reflect.DeepEqual(r.Result, core.Result{}) {
			t.Errorf("job %d: cancelled slot carries a result", i)
		}
	}
}

// TestSolveCtxCancelMidBatch cancels while a batch is in flight: the call
// must return promptly with every slot filled by either a real result or
// ctx.Err(), and a cancelled re-run must not hang.
func TestSolveCtxCancelMidBatch(t *testing.T) {
	inst := pipeline.MotivatingExample()
	var jobs []Job
	for x := 1; x <= 64; x++ {
		jobs = append(jobs, Job{Inst: &inst, Req: core.Request{
			Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&inst, 1+float64(x)/16),
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var results []JobResult
	go func() {
		defer close(done)
		results, _ = SolveCtx(ctx, jobs, Options{Workers: 2})
	}()
	cancel()
	<-done
	for i, r := range results {
		if r.Err != nil && r.Err != context.Canceled {
			t.Errorf("job %d: unexpected error %v", i, r.Err)
		}
		if r.Err == nil && r.Result.Mapping.Apps == nil {
			t.Errorf("job %d: nil mapping on a successful slot", i)
		}
	}
}

// TestSolveCtxBackgroundMatchesSolve pins that SolveCtx with a background
// context is exactly Solve.
func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := fig1Jobs(&inst)
	got, _ := SolveCtx(context.Background(), jobs, Options{Workers: 4})
	want, _ := Solve(jobs, Options{Workers: 4})
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d: SolveCtx differs from Solve", i)
		}
	}
}
