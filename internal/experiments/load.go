package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/server"
)

// Load-experiment shape. The zipf corpus holds far more distinct jobs than
// the cluster's total cache capacity (3 x loadCacheCap), so replacement
// pressure is constant; its hot head is the loadHotJobs cheapest scenarios
// (microsecond solves) and its cold tail is drawn from the
// loadExpensivePool most expensive ones (millisecond solves, distinct keys
// via the request seed), so every cold miss costs real solver time. The
// uniform working set fits every replica's cache, so once warm it must be
// answered from the cache alone: the gate is a uniform hit rate of exactly
// 1.
const (
	loadReplicas      = 3
	loadBatchJobs     = 8
	loadCacheCap      = 64 // entries per replica
	loadPricedPool    = 600
	loadHotJobs       = 64
	loadColdJobs      = 2000
	loadExpensivePool = 100
	loadZipfS         = 1.2
	loadUniformCorpus = 16
	loadExactCap      = 500 // branch-and-bound node budget, as in chaos
	loadWorkers       = 4   // concurrent client posters
)

// loadJob is one pre-encoded corpus job: the instance JSON and the wire
// request that BuildRequest maps back onto the exact generated engine
// request (jobspec.RequestOf round trip).
type loadJob struct {
	inst json.RawMessage
	req  jobspec.Request
}

// loadRun is one traffic pattern's measurement in BENCH_service.json.
// All numbers cover the measured phase only (the equal-sized warmup that
// precedes it is excluded; hits/misses/evictions are deltas of the
// cumulative /stats counters across the phase).
type loadRun struct {
	Traffic              string  `json:"traffic"`
	Batches              int     `json:"batches"`
	Jobs                 int     `json:"jobs"`
	JobErrors            int     `json:"jobErrors"` // infeasible degenerate draws; sheds fail the run
	ThroughputJobsPerSec float64 `json:"throughputJobsPerSec"`
	P50Ms                float64 `json:"p50Ms"`
	P99Ms                float64 `json:"p99Ms"`
	CacheHits            int64   `json:"cacheHits"`
	CacheMisses          int64   `json:"cacheMisses"`
	Evictions            int64   `json:"evictions"`
	HitRate              float64 `json:"hitRate"`
}

// loadBench is the BENCH_service.json document.
type loadBench struct {
	Schema             string    `json:"schema"`
	Seed               int64     `json:"seed"`
	Replicas           int       `json:"replicas"`
	Batches            int       `json:"batches"`
	BatchJobs          int       `json:"batchJobs"`
	CacheCapPerReplica int       `json:"cacheCapPerReplica"`
	ZipfCorpus         int       `json:"zipfCorpus"`
	ZipfHotJobs        int       `json:"zipfHotJobs"`
	ZipfColdJobs       int       `json:"zipfColdJobs"`
	ZipfS              float64   `json:"zipfS"`
	UniformCorpus      int       `json:"uniformCorpus"`
	Runs               []loadRun `json:"runs"`
	// UniformAllHits is the gate: the warm uniform run was answered from
	// the cache alone.
	UniformAllHits bool `json:"uniformAllHits"`
}

// Load runs the service load experiment (experiment LOAD): an in-process
// cluster of loadReplicas pipeserved replicas behind the consistent-hash
// gateway, driven with batched solver traffic drawn from the seeded
// scenario corpus. For each traffic pattern (zipf over a corpus much
// larger than the cluster's cache capacity; uniform over a working set
// that fits) it measures throughput, per-batch p50/p99 latency and the
// cluster-wide cache hit rate, and enforces the acceptance gate: the warm
// uniform run must be all cache hits. Each measurement drives an
// equal-sized unmeasured warmup first, so the reported numbers are steady
// state. Results are written to outPath (BENCH_service.json). batches <= 0
// runs 100 measured batches per traffic pattern.
func Load(w io.Writer, seed int64, batches int, outPath string) error {
	if batches <= 0 {
		batches = 100
	}
	jobs, err := loadCorpusJobs(seed)
	if err != nil {
		return fmt.Errorf("experiments: building load corpus: %w", err)
	}

	// Pre-draw both traffic streams from the seed, so a rerun replays
	// byte-identical request sequences.
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, loadZipfS, 1, uint64(len(jobs)-1))
	zipfStream := make([]int, 2*batches*loadBatchJobs) // warmup half + measured half
	for i := range zipfStream {
		zipfStream[i] = int(zipf.Uint64())
	}
	uniStream := make([]int, 2*batches*loadBatchJobs)
	for i := range uniStream {
		uniStream[i] = rng.Intn(loadUniformCorpus)
	}

	traffics := []struct {
		name   string
		jobs   []loadJob
		stream []int
	}{
		{"zipf", jobs, zipfStream},
		{"uniform", jobs[:loadUniformCorpus], uniStream},
	}

	bench := loadBench{
		Schema:             "pipegateway-load/v2",
		Seed:               seed,
		Replicas:           loadReplicas,
		Batches:            batches,
		BatchJobs:          loadBatchJobs,
		CacheCapPerReplica: loadCacheCap,
		ZipfCorpus:         len(jobs),
		ZipfHotJobs:        loadHotJobs,
		ZipfColdJobs:       loadColdJobs,
		ZipfS:              loadZipfS,
		UniformCorpus:      loadUniformCorpus,
	}
	for _, tr := range traffics {
		run, err := loadRunOne(tr.name, tr.jobs, tr.stream, batches)
		if err != nil {
			return fmt.Errorf("experiments: load run %s: %w", tr.name, err)
		}
		bench.Runs = append(bench.Runs, run)
		if tr.name == "uniform" {
			bench.UniformAllHits = run.CacheMisses == 0 && run.CacheHits > 0
		}
	}

	tb := report.New(fmt.Sprintf("LOAD - %d-replica gateway cluster, %d batches x %d jobs (seed %d)",
		loadReplicas, batches, loadBatchJobs, seed),
		"traffic", "jobs/s", "p50 ms", "p99 ms", "hit rate", "evictions", "ok")
	for _, run := range bench.Runs {
		ok := "-"
		if run.Traffic == "uniform" {
			ok = okMark(bench.UniformAllHits)
		}
		tb.Addf(run.Traffic,
			fmt.Sprintf("%.0f", run.ThroughputJobsPerSec),
			fmt.Sprintf("%.2f", run.P50Ms), fmt.Sprintf("%.2f", run.P99Ms),
			fmt.Sprintf("%.3f", run.HitRate), run.Evictions, ok)
	}
	tb.Render(w)
	fmt.Fprintln(w)

	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: writing %s: %w", outPath, err)
	}
	fmt.Fprintf(w, "load: wrote %s (%d runs)\n", outPath, len(bench.Runs))

	if !bench.UniformAllHits {
		return fmt.Errorf("experiments: load gate failed: the warm uniform working set missed the cache")
	}
	return nil
}

// loadCorpusJobs renders the seeded scenario corpus into wire jobs: each
// instance encoded once, each request shipped through jobspec.RequestOf
// so the replica solves the exact generated problem. Exact budgets are
// capped as in the chaos experiment so no single cold miss dominates a
// batch.
//
// The priced pool is split bimodally: the loadHotJobs cheapest scenarios
// become the corpus head (zipf's hot set, also the uniform working set),
// and the cold tail is synthesized from the loadExpensivePool most
// expensive scenarios, each repeated under distinct request seeds — a
// different seed changes the canonical cache key but not the
// (millisecond-scale) recompute cost.
func loadCorpusJobs(seed int64) ([]loadJob, error) {
	corpus := gen.DefaultSpace().Corpus(seed, loadPricedPool)
	priced := make([]loadJob, len(corpus))
	costs := make([]time.Duration, len(corpus))
	for i := range corpus {
		sc := &corpus[i]
		var buf bytes.Buffer
		if err := pipeline.EncodeJSON(&buf, &sc.Inst); err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", sc.Index, sc.Name, err)
		}
		req := sc.Req
		if req.ExactLimit == 0 || req.ExactLimit > loadExactCap {
			req.ExactLimit = loadExactCap
		}
		// One local solve per scenario prices the job. Infeasible
		// degenerate draws fail fast and price accordingly.
		start := time.Now()
		core.Solve(&sc.Inst, req)
		costs[i] = time.Since(start)
		priced[i] = loadJob{
			inst: json.RawMessage(bytes.Clone(buf.Bytes())),
			req:  jobspec.RequestOf(req),
		}
	}
	sort.Sort(&loadByCost{jobs: priced, costs: costs})

	jobs := make([]loadJob, 0, loadHotJobs+loadColdJobs)
	jobs = append(jobs, priced[:loadHotJobs]...)
	pool := priced[len(priced)-loadExpensivePool:]
	for j := 0; j < loadColdJobs; j++ {
		v := pool[j%len(pool)]
		v.req.Seed = int64(1000 + j)
		jobs = append(jobs, v)
	}
	return jobs, nil
}

// loadByCost sorts jobs and their measured costs together, cheapest
// first.
type loadByCost struct {
	jobs  []loadJob
	costs []time.Duration
}

func (s *loadByCost) Len() int           { return len(s.jobs) }
func (s *loadByCost) Less(i, j int) bool { return s.costs[i] < s.costs[j] }
func (s *loadByCost) Swap(i, j int) {
	s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i]
	s.costs[i], s.costs[j] = s.costs[j], s.costs[i]
}

// loadStats is the slice of the gateway's /stats document the experiment
// reads back after a run.
type loadStats struct {
	Merged struct {
		CacheHits   int64 `json:"cacheHits"`
		CacheMisses int64 `json:"cacheMisses"`
		Evictions   int64 `json:"evictions"`
	} `json:"merged"`
}

// loadRunOne stands up a fresh cluster (loadReplicas pipeserved replicas
// behind one gateway), replays the traffic stream as batches through
// concurrent client workers, and reads the merged /stats. The first half
// of the stream is warmup — caches fill — and is excluded: throughput, latency and hit
// rate are computed over the measured second half (for the hit rate, as
// the delta of the cumulative /stats counters), so the numbers describe
// the steady state rather than the cold start. Per-job infeasible errors
// (degenerate corpus draws) are counted and tolerated; an error slot with
// any other code fails the run — with every replica up, the serving path
// must never drop or corrupt a job.
func loadRunOne(traffic string, jobs []loadJob, stream []int, batches int) (loadRun, error) {
	urls := make([]string, loadReplicas)
	closers := make([]func(), 0, loadReplicas+1)
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i := range urls {
		ts := httptest.NewServer(server.New(server.Config{CacheCap: loadCacheCap}))
		closers = append(closers, ts.Close)
		urls[i] = ts.URL
	}
	client := gateway.NewClient(2 * time.Minute)
	gw, err := gateway.New(gateway.Config{
		Replicas:  urls,
		Client:    client,
		RetryBase: time.Millisecond,
		Seed:      1,
	})
	if err != nil {
		return loadRun{}, err
	}
	gts := httptest.NewServer(gw)
	closers = append(closers, gts.Close)

	bodies := make([][]byte, 2*batches) // first half warmup, second measured
	for b := range bodies {
		file := jobspec.File{Jobs: make([]jobspec.Job, loadBatchJobs)}
		for j := range file.Jobs {
			lj := jobs[stream[b*loadBatchJobs+j]]
			file.Jobs[j] = jobspec.Job{Instance: lj.inst, Request: lj.req}
		}
		body, err := json.Marshal(file)
		if err != nil {
			return loadRun{}, err
		}
		bodies[b] = body
	}

	var (
		mu        sync.Mutex
		latencies = make([]float64, 0, batches)
		jobErrors int
		firstErr  error
	)
	drive := func(part [][]byte, collect bool) {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < loadWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range next {
					t0 := time.Now()
					errs, err := loadPostBatch(client, gts.URL, part[b])
					ms := float64(time.Since(t0).Microseconds()) / 1000
					mu.Lock()
					if collect {
						latencies = append(latencies, ms)
						jobErrors += errs
					}
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("batch %d: %w", b, err)
					}
					mu.Unlock()
				}
			}()
		}
		for b := range part {
			next <- b
		}
		close(next)
		wg.Wait()
	}

	drive(bodies[:batches], false)
	if firstErr != nil {
		return loadRun{}, fmt.Errorf("warmup: %w", firstErr)
	}
	before, err := loadSampleStats(client, gts.URL)
	if err != nil {
		return loadRun{}, err
	}
	start := time.Now()
	drive(bodies[batches:], true)
	wall := time.Since(start)
	if firstErr != nil {
		return loadRun{}, firstErr
	}
	after, err := loadSampleStats(client, gts.URL)
	if err != nil {
		return loadRun{}, err
	}

	hits := after.Merged.CacheHits - before.Merged.CacheHits
	misses := after.Merged.CacheMisses - before.Merged.CacheMisses
	run := loadRun{
		Traffic:              traffic,
		Batches:              batches,
		Jobs:                 batches * loadBatchJobs,
		JobErrors:            jobErrors,
		ThroughputJobsPerSec: float64(batches*loadBatchJobs) / wall.Seconds(),
		P50Ms:                percentile(latencies, 0.50),
		P99Ms:                percentile(latencies, 0.99),
		CacheHits:            hits,
		CacheMisses:          misses,
		Evictions:            after.Merged.Evictions - before.Merged.Evictions,
	}
	if total := hits + misses; total > 0 {
		run.HitRate = float64(hits) / float64(total)
	}
	return run, nil
}

// loadSampleStats reads the gateway's /stats once.
func loadSampleStats(client *http.Client, base string) (loadStats, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return loadStats{}, err
	}
	defer resp.Body.Close()
	var st loadStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return loadStats{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// loadPostBatch posts one batch and scans the result slots: infeasible
// errors are counted (the corpus deliberately contains degenerate,
// infeasible draws); an error slot with any other code — shed, timeout,
// internal, invalid, or none at all — or a non-200 response is a hard
// failure.
func loadPostBatch(client *http.Client, base string, body []byte) (jobErrors int, err error) {
	resp, err := client.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("gateway answered %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var out struct {
		Results []struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, err
	}
	for i, r := range out.Results {
		if r.Error == "" {
			continue
		}
		if r.Code != jobspec.CodeInfeasible {
			return jobErrors, fmt.Errorf("job %d failed with code %q: %s", i, r.Code, r.Error)
		}
		jobErrors++
	}
	return jobErrors, nil
}
