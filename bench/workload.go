package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The cluster under test: the shipping pipegateway topology, with every
// replica at pipeserved defaults except the cache cap, which is small
// enough that zipf-batch evicts constantly.
const (
	replicas  = 3
	cacheCap  = 256
	batchJobs = 8
)

// workloadSpec fixes one workload. The rates, limits and reference
// capacities were measured, at the reference host speed, on the 2-CPU
// machine the benchmark was defined on (nproc 2); see README.md for the
// runs.
type workloadSpec struct {
	name string
	why  string
	path string // the endpoint every request goes to
	// refCapacity is the closed-loop rate (jobs/s) the code the benchmark
	// was defined on reached. It sizes the closed-loop list so that the
	// list takes closedShare of --seconds there; the list, not the time,
	// is fixed.
	refCapacity float64
	// singleRate is the rate (requests/s) one client reached, sending each
	// request when the previous one was answered. It sizes the
	// single-client list the same way.
	singleRate float64
	// limitMs is the slo_frac latency limit, two to four times the
	// single-client p95 the benchmark was defined on.
	limitMs float64
	// warmup is the number of requests in the warmup list every setup
	// replays.
	warmup int
	build  func(seed int64, sizes listSizes) (*corpus, error)
}

// corpus builds the workload's inputs for seed.
func (w workloadSpec) corpus(seed int64, sizes listSizes) (*corpus, error) {
	c, err := w.build(seed, sizes)
	if err != nil {
		return nil, fmt.Errorf("building %s inputs: %w", w.name, err)
	}
	c.path = w.path
	return c, nil
}

var workloads = []workloadSpec{
	{
		name: "hot-solve", path: "/v1/solve",
		why:         "48 distinct jobs that all stay cached: the solver does nothing, so the serving path (gateway, HTTP, jobspec, cache hit) sets the pace",
		refCapacity: 5800, singleRate: 3000, limitMs: 2, warmup: 96,
		build: buildHotSolve,
	},
	{
		name: "zipf-batch", path: "/v1/batch",
		why:         "zipf(1.1) over 8192 jobs, 8 per batch, against 768 cache entries: constant eviction, where replacement policy and miss cost matter",
		refCapacity: 4600, singleRate: 300, limitMs: 25, warmup: 64,
		build: buildZipfBatch,
	},
	{
		name: "cold-solve", path: "/v1/batch",
		why:         "8-job batches whose keys never repeat: every cache tier only inserts and evicts, so the core solvers (B&B, annealing) set the pace",
		refCapacity: 1950, singleRate: 150, limitMs: 40, warmup: 24,
		build: buildColdSolve,
	},
	{
		name: "plan-sweep", path: "/v1/batch",
		why:         "8 distinct polynomial queries per batch on one of 8 large shared instances: result-tier misses, plan-tier hits, polynomial DPs",
		refCapacity: 2300, singleRate: 200, limitMs: 20, warmup: 32,
		build: buildPlanSweep,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// listSizes are the request counts of a run's three lists.
type listSizes struct{ warmup, closed, single int }

// job is one distinct corpus job: what the library answers for it.
type job struct {
	key    [16]byte // hash of batch.Key of the decoded job
	want   []byte   // compact JSON of jobspec.EncodeResult(core.Solve(...))
	method core.Method
	stages int // the instance's total stage count
}

// request is one pre-encoded HTTP request body and the corpus job behind
// each of its result slots.
type request struct {
	body []byte
	jobs []int32
}

// corpus is everything a run sends, fixed before the cluster starts.
type corpus struct {
	path                   string // the workload's endpoint
	jobs                   []job
	warmup, closed, single []request
}

// answer is the oracle: it decodes the wire job exactly as a replica does
// (with inst as the file-level instance when the job carries none), solves
// it with the library and returns the canonical key's hash, the compact
// JSON of the result slot a replica must answer, the method and the stage
// count.
func answer(inst json.RawMessage, wire jobspec.Job) (job, error) {
	f := jobspec.File{Instance: inst, Jobs: []jobspec.Job{wire}}
	jobs, err := f.BatchJobs()
	if err != nil {
		return job{}, err
	}
	res, err := core.Solve(jobs[0].Inst, jobs[0].Req)
	if err != nil {
		return job{}, err
	}
	slot, err := jobspec.EncodeResult(batch.JobResult{Result: res})
	if err != nil {
		return job{}, err
	}
	want, err := json.Marshal(slot)
	if err != nil {
		return job{}, err
	}
	h := fnv.New128a()
	h.Write([]byte(batch.Key(jobs[0].Inst, jobs[0].Req)))
	j := job{want: want, method: res.Method, stages: stages(jobs[0].Inst)}
	h.Sum(j.key[:0])
	return j, nil
}

// parallel runs fn(0..n-1) on nproc goroutines and returns when all are
// done.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func compactJSON(raw []byte) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// genSpace is DefaultSpace grown to 10 stages and 10 processors: there,
// about 6% of feasible jobs exceed the exact search limit and fall back to
// 4-8 ms of annealing, and branch-and-bound takes tens of microseconds to
// tens of milliseconds. At DefaultSpace sizes every job solves in
// microseconds and a cache miss costs nothing.
func genSpace() gen.Space {
	sp := gen.DefaultSpace()
	sp.MaxStagesPerApp, sp.MaxTotalStages, sp.MaxProcs = 8, 10, 10
	return sp
}

// Method classes, as the core metrics report them.
const (
	classHeuristic = iota // annealing fallback
	classExact            // branch-and-bound
	classPoly             // a polynomial algorithm
	classes
)

func methodClass(m core.Method) int {
	switch m {
	case core.MethodHeuristic:
		return classHeuristic
	case core.MethodExact:
		return classExact
	}
	return classPoly
}

// stages is the instance's total stage count.
func stages(inst *pipeline.Instance) int {
	n := 0
	for a := range inst.Apps {
		n += len(inst.Apps[a].Stages)
	}
	return n
}

// genPool draws n distinct jobs from genSpace that the library answers
// successfully, in draw order, and returns them with their wire form. The
// pool follows the seed alone, never which method answers a job, so every
// build is sent the same jobs: the library only supplies the expected
// answers and drops the draws it cannot answer. Proc-starved draws, and
// draws keep rejects when it is not nil, are skipped unsolved; proc-starved
// draws are infeasible by construction, and proving it by exhaustive search
// can take seconds.
func genPool(seed int64, n int, keep func(*gen.Scenario) bool) ([]job, []jobspec.Job, error) {
	sp := genSpace()
	pool := make([]job, 0, n)
	wires := make([]jobspec.Job, 0, n)
	seen := make(map[[16]byte]bool, n)
	const chunk = 256
	for next := 0; len(pool) < n; next += chunk {
		if next > 40*n+10*chunk {
			return nil, nil, fmt.Errorf("drew %d scenarios and found only %d of %d solvable jobs", next, len(pool), n)
		}
		cands := make([]job, chunk)
		cwires := make([]jobspec.Job, chunk)
		ok := make([]bool, chunk)
		parallel(chunk, func(i int) {
			sc := sp.Sample(seed, next+i)
			if sc.Degenerate == gen.DegenProcStarved || (keep != nil && !keep(&sc)) {
				return
			}
			var buf bytes.Buffer
			if err := pipeline.EncodeJSON(&buf, &sc.Inst); err != nil {
				return
			}
			inst, err := compactJSON(buf.Bytes())
			if err != nil {
				return
			}
			cwires[i] = jobspec.Job{Instance: inst, Request: jobspec.RequestOf(sc.Req)}
			j, err := answer(nil, cwires[i])
			cands[i], ok[i] = j, err == nil
		})
		for i := range cands {
			if !ok[i] || seen[cands[i].key] {
				continue
			}
			seen[cands[i].key] = true
			pool = append(pool, cands[i])
			wires = append(wires, cwires[i])
			if len(pool) == n {
				break
			}
		}
	}
	return pool, wires, nil
}

// shuffle permutes a pool and its wire forms together.
func shuffle(rng *rand.Rand, pool []job, wires []jobspec.Job) {
	rng.Shuffle(len(pool), func(i, j int) {
		pool[i], pool[j] = pool[j], pool[i]
		wires[i], wires[j] = wires[j], wires[i]
	})
}

// drawBatches builds n /v1/batch requests of batchJobs jobs each, every
// job carrying its own instance, with job ids from draw.
func drawBatches(wires []jobspec.Job, n int, draw func() int32) ([]request, error) {
	out := make([]request, n)
	for r := range out {
		f := jobspec.File{Jobs: make([]jobspec.Job, batchJobs)}
		ids := make([]int32, batchJobs)
		for i := range ids {
			ids[i] = draw()
			f.Jobs[i] = wires[ids[i]]
		}
		body, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		out[r] = request{body: body, jobs: ids}
	}
	return out, nil
}

// batchLists fills a corpus's three lists with drawBatches: the warmup
// list with the jobs of warm in order, the other two from draw.
func batchLists(c *corpus, wires []jobspec.Job, n listSizes, warm []int32, draw func() int32) error {
	var err error
	if c.warmup, err = drawBatches(wires, n.warmup, func() int32 { id := warm[0]; warm = warm[1:]; return id }); err != nil {
		return err
	}
	if c.closed, err = drawBatches(wires, n.closed, draw); err != nil {
		return err
	}
	c.single, err = drawBatches(wires, n.single, draw)
	return err
}

// cheapJobs returns the ids of the first n pool jobs with at most
// hotMaxStages stages. The batch workloads warm up with them: the warmup
// opens connections and starts the cluster's goroutines, and a warmup of
// jobs drawn like the rest would hold a different number of
// millisecond-long annealing solves for every seed, which setup_s would
// follow.
func cheapJobs(pool []job, n int) ([]int32, error) {
	var ids []int32
	for i := range pool {
		if len(ids) == n {
			break
		}
		if pool[i].stages <= hotMaxStages {
			ids = append(ids, int32(i))
		}
	}
	if len(ids) < n {
		return nil, fmt.Errorf("the pool holds only %d of the %d small jobs the warmup needs", len(ids), n)
	}
	return ids, nil
}

const (
	hotJobs = 48
	// hotMaxStages keeps hot-solve's jobs to at most 4 stages. Their solves
	// take microseconds and only set-up pays them; from 5 stages on, some
	// jobs fall back to milliseconds of annealing, and how many of them 48
	// draws hold would swing setup_s from seed to seed.
	hotMaxStages = 4
)

func buildHotSolve(seed int64, n listSizes) (*corpus, error) {
	pool, wires, err := genPool(seed, hotJobs, func(sc *gen.Scenario) bool { return stages(&sc.Inst) <= hotMaxStages })
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(pool))
	for i := range wires {
		if bodies[i], err = json.Marshal(wires[i]); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func(count int, next func(r int) int) []request {
		out := make([]request, count)
		for r := range out {
			id := next(r)
			out[r] = request{body: bodies[id], jobs: []int32{int32(id)}}
		}
		return out
	}
	uniform := func(int) int { return rng.Intn(len(pool)) }
	return &corpus{
		jobs:   pool,
		warmup: draw(n.warmup, func(r int) int { return r % len(pool) }),
		closed: draw(n.closed, uniform),
		single: draw(n.single, uniform),
	}, nil
}

const (
	zipfJobs = 8192
	zipfS    = 1.1
)

func buildZipfBatch(seed int64, n listSizes) (*corpus, error) {
	pool, wires, err := genPool(seed, zipfJobs, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Popularity rank is a shuffle of draw order, so it is independent of
	// solve cost.
	shuffle(rng, pool, wires)
	warm, err := cheapJobs(pool, batchJobs*n.warmup)
	if err != nil {
		return nil, err
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	c := &corpus{jobs: pool}
	return c, batchLists(c, wires, n, warm, func() int32 { return int32(z.Uint64()) })
}

func buildColdSolve(seed int64, n listSizes) (*corpus, error) {
	pool, wires, err := genPool(seed, batchJobs*(n.warmup+n.closed+n.single), nil)
	if err != nil {
		return nil, err
	}
	shuffle(rand.New(rand.NewSource(seed)), pool, wires)
	warm, err := cheapJobs(pool, batchJobs*n.warmup)
	if err != nil {
		return nil, err
	}
	// The other lists take the pool's remaining jobs in order, so no key
	// is sent twice.
	used := make(map[int32]bool, len(warm))
	for _, id := range warm {
		used[id] = true
	}
	var next int32
	c := &corpus{jobs: pool}
	return c, batchLists(c, wires, n, warm, func() int32 {
		for used[next] {
			next++
		}
		next++
		return next - 1
	})
}

// planInstances is the number of shared plan-sweep instances. Their
// shapes are fixed and only their numbers follow the seed: instance i has
// 2+i%3 applications sharing 24+3i stages evenly (rounded down) and 3 DVFS
// modes, and is fully homogeneous (interval rule, chain and energy DPs)
// for even i and communication homogeneous (one-to-one rule, bipartite
// matching) for odd i.
const planInstances = 8

func planInstance(rng *rand.Rand, i int) (pipeline.Instance, mapping.Rule) {
	apps := 2 + i%3
	per := (24 + 3*i) / apps
	cfg := workload.Config{
		Apps: apps, MinStages: per, MaxStages: per, Modes: 3,
		MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	}
	if i%2 == 0 {
		cfg.Class, cfg.Procs = pipeline.FullyHomogeneous, 6+i
		return workload.MustInstance(rng, cfg), mapping.Interval
	}
	cfg.Class, cfg.Procs = pipeline.CommHomogeneous, per*apps+2
	return workload.MustInstance(rng, cfg), mapping.OneToOne
}

// planQuery draws one bounded query of a polynomial cell for the
// instance: period under latency bounds, latency under period bounds, or
// energy under period bounds. Bounds are a random slack times each
// application's whole-chain cost on the slowest processor, so most are
// feasible and all are distinct.
func planQuery(rng *rand.Rand, inst *pipeline.Instance, rule mapping.Rule) jobspec.Request {
	bounds := func() []float64 {
		slack := 0.4 + 2*rng.Float64()
		b := make([]float64, len(inst.Apps))
		for a := range b {
			b[a] = slack * chainCost(inst, a)
		}
		return b
	}
	req := jobspec.Request{Rule: rule.String(), Model: pipeline.CommModel(rng.Intn(2)).String()}
	obj := core.Energy
	if rule == mapping.Interval {
		obj = core.Criterion(rng.Intn(3))
	}
	req.Objective = obj.String()
	if obj == core.Period {
		req.LatencyBounds = bounds()
	} else {
		req.PeriodBounds = bounds()
	}
	return req
}

// chainCost is application a's period (and latency) as one interval on the
// slowest processor at its slowest mode: an upper bound on what any
// mapping needs.
func chainCost(inst *pipeline.Instance, a int) float64 {
	minSpeed := math.Inf(1)
	for p := range inst.Platform.Processors {
		minSpeed = math.Min(minSpeed, inst.Platform.Processors[p].MinSpeed())
	}
	app := &inst.Apps[a]
	cost := app.In
	for _, st := range app.Stages {
		cost += st.Work/minSpeed + st.Out
	}
	return cost
}

func buildPlanSweep(seed int64, n listSizes) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]json.RawMessage, planInstances)
	decoded := make([]pipeline.Instance, planInstances)
	rules := make([]mapping.Rule, planInstances)
	for i := range insts {
		decoded[i], rules[i] = planInstance(rng, i)
		var buf bytes.Buffer
		if err := pipeline.EncodeJSON(&buf, &decoded[i]); err != nil {
			return nil, err
		}
		var err error
		if insts[i], err = compactJSON(buf.Bytes()); err != nil {
			return nil, err
		}
	}
	total := n.warmup + n.closed + n.single
	// Requests take instances round-robin; each needs batchJobs fresh
	// queries on its instance.
	need := make([]int, planInstances)
	for r := 0; r < total; r++ {
		need[r%planInstances] += batchJobs
	}
	c := &corpus{}
	var wires []jobspec.Job
	byInst := make([][]int32, planInstances)
	seen := make(map[[16]byte]bool)
	for i := range insts {
		for round := 0; len(byInst[i]) < need[i]; round++ {
			if round == 20 {
				return nil, fmt.Errorf("instance %d: the library answers only %d of %d queries", i, len(byInst[i]), need[i])
			}
			cands := make([]job, (need[i]-len(byInst[i]))*5/4+8)
			cwires := make([]jobspec.Job, len(cands))
			for k := range cwires {
				cwires[k].Request = planQuery(rng, &decoded[i], rules[i])
			}
			ok := make([]bool, len(cands))
			parallel(len(cands), func(k int) {
				var err error
				cands[k], err = answer(insts[i], cwires[k])
				ok[k] = err == nil
			})
			for k := range cands {
				if !ok[k] || seen[cands[k].key] || len(byInst[i]) == need[i] {
					continue
				}
				seen[cands[k].key] = true
				byInst[i] = append(byInst[i], int32(len(c.jobs)))
				c.jobs = append(c.jobs, cands[k])
				wires = append(wires, cwires[k])
			}
		}
	}
	used := make([]int, planInstances)
	reqs := make([]request, total)
	for r := range reqs {
		i := r % planInstances
		ids := byInst[i][used[i] : used[i]+batchJobs]
		used[i] += batchJobs
		f := jobspec.File{Instance: insts[i], Jobs: make([]jobspec.Job, len(ids))}
		for k, id := range ids {
			f.Jobs[k] = wires[id]
		}
		body, err := json.Marshal(f)
		if err != nil {
			return nil, err
		}
		reqs[r] = request{body: body, jobs: ids}
	}
	c.warmup = reqs[:n.warmup]
	c.closed = reqs[n.warmup : n.warmup+n.closed]
	c.single = reqs[n.warmup+n.closed:]
	return c, nil
}
