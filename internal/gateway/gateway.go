// Package gateway is the horizontal scale-out front for the pipeserved
// solver service: it computes each job's canonical key (the exact
// encoding the batch engine memoizes by), routes keys over a
// consistent-hash ring of replicas so every replica's memo and plan
// caches stay hot for a stable slice of the key space, fans /v1/batch
// sub-batches out concurrently, and reassembles the per-job results in
// input order.
//
// Results pass through as raw JSON: the gateway never decodes a result
// slot it merely forwards, so a batch answered through N replicas is
// bit-identical to the same batch answered by one (non-finite values
// rendered as null survive; re-encoding would corrupt them).
//
// The gateway degrades rather than fails: replicas are health-checked
// via their /readyz probes, shed sub-requests (429/503) are retried with
// jittered backoff honoring Retry-After, and when a replica stays down
// its keys reroute to their ring successors. Only when no healthy
// replica remains does a job slot report a structured shed error.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/jobspec"
)

// Config tunes a Gateway.
type Config struct {
	// Replicas are the base URLs of the pipeserved replicas
	// (e.g. http://10.0.0.1:8080). At least one is required.
	Replicas []string
	// Client is the HTTP client for all upstream traffic; nil means
	// NewClient(0) (a timed client — the default http.Client's missing
	// timeout is exactly the bug this package exists to not repeat).
	Client *http.Client
	// Router maps canonical keys onto replica indices; nil means a
	// consistent-hash Ring with DefaultVirtualNodes points per replica.
	Router Router
	// Retries is the number of additional attempts per upstream request
	// after the first fails retryably; 0 means DefaultRetries, negative
	// disables retries.
	Retries int
	// RetryBase is the base of the jittered exponential backoff between
	// retries (attempt n waits ~RetryBase·2ⁿ); 0 means DefaultRetryBase.
	RetryBase time.Duration
	// MaxBody caps request bodies in bytes; 0 means
	// jobspec.DefaultMaxBody (8 MiB), negative disables the cap.
	MaxBody int64
	// Seed seeds the retry jitter; 0 derives one from the clock.
	Seed int64
	// Logger receives reroute and probe reports; nil discards.
	Logger *log.Logger
}

// Defaults for Config's zero values.
const (
	DefaultRetries   = 3
	DefaultRetryBase = 100 * time.Millisecond
)

// Gateway fronts a cluster of pipeserved replicas. Create with New; it
// implements http.Handler and is safe for concurrent use.
type Gateway struct {
	replicas  []string
	client    *http.Client
	router    Router
	retries   int
	retryBase time.Duration
	maxBody   int64
	log       *log.Logger
	mux       *http.ServeMux
	start     time.Time

	healthy []atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	rerouted atomic.Int64
	retried  atomic.Int64
	shed     atomic.Int64

	requests jobspec.Counters // per route, see jobspec.RouteKey
}

// New builds a Gateway over the configured replicas, all initially
// presumed healthy (the first failed request or probe corrects that).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	replicas := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		if u == "" {
			return nil, fmt.Errorf("gateway: replica %d has an empty URL", i)
		}
		replicas[i] = strings.TrimRight(u, "/")
	}
	router := cfg.Router
	if router == nil {
		router = NewRing(len(replicas), 0)
	}
	if router.Replicas() != len(replicas) {
		return nil, fmt.Errorf("gateway: router built for %d replicas, config has %d",
			router.Replicas(), len(replicas))
	}
	client := cfg.Client
	if client == nil {
		client = NewClient(0)
	}
	retries := cfg.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	retryBase := cfg.RetryBase
	if retryBase <= 0 {
		retryBase = DefaultRetryBase
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	g := &Gateway{
		replicas:  replicas,
		client:    client,
		router:    router,
		retries:   retries,
		retryBase: retryBase,
		maxBody:   cfg.MaxBody,
		log:       logger,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		healthy:   make([]atomic.Bool, len(replicas)),
		rng:       rand.New(rand.NewSource(seed)),
	}
	for i := range g.healthy {
		g.healthy[i].Store(true)
	}
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("POST /v1/solve", g.handleSolve)
	g.mux.HandleFunc("POST /v1/pareto", g.handleOpaque)
	g.mux.HandleFunc("POST /v1/simulate", g.handleOpaque)
	g.mux.HandleFunc("POST /v1/resolve", g.handleOpaque)
	g.mux.HandleFunc("GET /healthz", jobspec.Healthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(jobspec.RouteKey(g.mux, r), 1)
	jobspec.LimitBody(w, r, g.maxBody)
	g.mux.ServeHTTP(w, r)
}

// Healthy reports the current health view of replica i.
func (g *Gateway) Healthy(i int) bool { return g.healthy[i].Load() }

// markDown records replica i as unhealthy so routing skips it until a
// probe brings it back.
func (g *Gateway) markDown(i int, reason error) {
	if g.healthy[i].CompareAndSwap(true, false) {
		g.log.Printf("gateway: replica %d (%s) marked down: %v", i, g.replicas[i], reason)
	}
}

// Probe checks every replica's /readyz once and updates the health view.
// A replica answers ready with 200; anything else — including a refused
// connection — marks it down. Probes use the shared timed client.
func (g *Gateway) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range g.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.replicas[i]+"/readyz", nil)
			if err != nil {
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				g.markDown(i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if g.healthy[i].CompareAndSwap(false, true) {
					g.log.Printf("gateway: replica %d (%s) back up", i, g.replicas[i])
				}
			} else {
				g.markDown(i, fmt.Errorf("readyz status %d", resp.StatusCode))
			}
		}(i)
	}
	wg.Wait()
}

// StartProbes probes every replica now and then every interval
// (0 means 2s) until ctx is cancelled.
func (g *Gateway) StartProbes(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	g.Probe(ctx)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.Probe(ctx)
			}
		}
	}()
}

// route picks the replica owning key under the current health view.
func (g *Gateway) route(key string) (int, bool) {
	return g.router.Route(key, func(i int) bool { return g.healthy[i].Load() })
}

// sleepCtx waits d or until ctx is done; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// errShed marks an upstream rejection that exhausted its retries.
var errShed = errors.New("gateway: upstream shed the request")

// post sends body to one replica with the retry schedule: transport
// failures (including client timeouts) and shed responses (429/503,
// honoring Retry-After) are retried up to the configured budget; any
// other response is returned to the caller. On success the full response
// body is read and returned with the response.
func (g *Gateway) post(ctx context.Context, replica int, path string, body []byte) (*http.Response, []byte, error) {
	url := g.replicas[replica] + path
	var lastErr error
	for attempt := 0; attempt <= g.retries; attempt++ {
		if attempt > 0 {
			g.retried.Add(1)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client.Do(req)
		if err != nil {
			// Transport failure: connection refused, reset, or the
			// client's per-attempt timeout — all retryable, the request
			// may simply have raced a restart.
			lastErr = err
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			if attempt < g.retries && sleepCtx(ctx, g.backoff(attempt)) {
				continue
			}
			return nil, nil, lastErr
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			if attempt < g.retries && sleepCtx(ctx, g.backoff(attempt)) {
				continue
			}
			return nil, nil, lastErr
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			lastErr = fmt.Errorf("%w: %s answered %d", errShed, url, resp.StatusCode)
			if attempt < g.retries {
				wait := retryWait(resp.Header.Get("Retry-After"), g.retryBase, attempt, g.jitterRNG(), time.Now())
				if sleepCtx(ctx, wait) {
					continue
				}
			}
			return resp, respBody, lastErr
		}
		return resp, respBody, nil
	}
	return nil, nil, lastErr
}

func (g *Gateway) backoff(attempt int) time.Duration {
	return backoffDelay(g.retryBase, attempt, g.jitterRNG())
}

// jitterRNG draws from the shared jitter source under its lock.
// math/rand.Rand is not safe for concurrent use, and the fan-out calls
// this from many goroutines.
func (g *Gateway) jitterRNG() *rand.Rand {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return rand.New(rand.NewSource(g.rng.Int63()))
}

// wireOutput is the /v1/batch response with the result slots kept as raw
// JSON: the gateway reassembles them verbatim, never decoding a slot it
// only forwards, so reassembly is bit-preserving.
type wireOutput struct {
	Results []json.RawMessage `json:"results"`
	Stats   jobspec.Stats     `json:"stats"`
}

// errorSlot renders a structured per-job error result (same shape the
// server puts in a failed slot) as a raw slot.
func errorSlot(code string, err error) json.RawMessage {
	raw, _ := json.Marshal(jobspec.Result{Error: err.Error(), Code: code})
	return raw
}

// handleBatch fans a batch out across the ring: every job is keyed by its
// canonical encoding, grouped by owning replica, and the groups are
// posted concurrently; the sub-responses' raw result slots are scattered
// back into input order and the sub-batch stats are merged. A group whose
// replica fails (transport error or shed past the retry budget) marks the
// replica down and reroutes to the ring successors; jobs with no healthy
// replica left answer structured shed errors in their slots rather than
// failing the whole batch.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	doc, err := jobspec.DecodeFile(r.Body)
	if err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	jobs, err := doc.BatchJobs()
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i] = batch.Key(jobs[i].Inst, jobs[i].Req)
	}

	startWall := time.Now()
	results := make([]json.RawMessage, len(jobs))
	merged := jobspec.Stats{Methods: make(map[string]int)}
	var mu sync.Mutex // guards merged (results slots are disjoint per group)

	indices := make([]int, len(jobs))
	for i := range indices {
		indices[i] = i
	}
	g.dispatch(r.Context(), &doc, keys, indices, results, &merged, &mu, 0)

	merged.WallMs = float64(time.Since(startWall).Microseconds()) / 1000
	jobspec.WriteJSON(w, http.StatusOK, wireOutput{Results: results, Stats: merged})
}

// dispatch routes the given job indices under the current health view,
// posts one sub-batch per owning replica concurrently, and recurses for
// groups whose replica turned out to be down (depth bounds the recursion:
// each level retires at least one replica).
func (g *Gateway) dispatch(ctx context.Context, doc *jobspec.File, keys []string,
	indices []int, results []json.RawMessage, merged *jobspec.Stats, mu *sync.Mutex, depth int) {

	groups := make(map[int][]int)
	for _, idx := range indices {
		rep, ok := g.route(keys[idx])
		if !ok {
			g.shed.Add(1)
			mu.Lock()
			merged.Jobs++
			merged.Errors++
			mu.Unlock()
			results[idx] = errorSlot(jobspec.CodeShed, errors.New("no healthy replica for job"))
			continue
		}
		groups[rep] = append(groups[rep], idx)
	}

	var wg sync.WaitGroup
	for rep, group := range groups {
		wg.Add(1)
		go func(rep int, group []int) {
			defer wg.Done()
			sub := jobspec.File{Instance: doc.Instance, Jobs: make([]jobspec.Job, len(group))}
			for i, idx := range group {
				sub.Jobs[i] = doc.Jobs[idx]
			}
			body, err := json.Marshal(sub)
			if err != nil {
				g.failSlots(group, results, merged, mu, jobspec.CodeInternal, err)
				return
			}
			resp, respBody, err := g.post(ctx, rep, "/v1/batch", body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("replica %s answered %d to a sub-batch: %s",
					g.replicas[rep], resp.StatusCode, truncate(respBody, 200))
			}
			if err != nil {
				// The replica is gone or persistently shedding: take it
				// out of the ring and let the group's keys find their
				// successors. Recursion is bounded — every level marks a
				// replica down, and route() answers ok=false once none
				// are left.
				if ctx.Err() != nil {
					g.failSlots(group, results, merged, mu, jobspec.CodeTimeout, ctx.Err())
					return
				}
				g.markDown(rep, err)
				if depth < len(g.replicas) {
					g.rerouted.Add(int64(len(group)))
					g.dispatch(ctx, doc, keys, group, results, merged, mu, depth+1)
					return
				}
				g.failSlots(group, results, merged, mu, jobspec.CodeShed, err)
				return
			}
			var out wireOutput
			if err := json.Unmarshal(respBody, &out); err != nil || len(out.Results) != len(group) {
				if err == nil {
					err = fmt.Errorf("sub-batch answered %d results for %d jobs", len(out.Results), len(group))
				}
				g.failSlots(group, results, merged, mu, jobspec.CodeInternal, err)
				return
			}
			for i, idx := range group {
				results[idx] = out.Results[i]
			}
			mu.Lock()
			merged.Merge(out.Stats)
			mu.Unlock()
		}(rep, group)
	}
	wg.Wait()
}

// failSlots fills a group's result slots with one structured error each
// and counts them in the merged stats.
func (g *Gateway) failSlots(group []int, results []json.RawMessage, merged *jobspec.Stats,
	mu *sync.Mutex, code string, err error) {
	if code == jobspec.CodeShed {
		g.shed.Add(int64(len(group)))
	}
	slot := errorSlot(code, err)
	for _, idx := range group {
		results[idx] = slot
	}
	mu.Lock()
	merged.Jobs += len(group)
	merged.Errors += len(group)
	mu.Unlock()
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

// handleSolve routes a single solve by its canonical key — the same key
// its job would use inside a batch, so a /v1/solve repeat always lands on
// the replica whose cache holds it — and forwards the request verbatim.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	var job jobspec.Job
	if err := json.Unmarshal(body, &job); err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if job.Instance == nil {
		jobspec.WriteError(w, http.StatusBadRequest, errors.New("solve request has no instance"))
		return
	}
	file := jobspec.File{Instance: job.Instance, Jobs: []jobspec.Job{{Request: job.Request}}}
	jobs, err := file.BatchJobs()
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.forward(w, r, batch.Key(jobs[0].Inst, jobs[0].Req), body)
}

// handleOpaque routes an endpoint the gateway does not interpret
// (pareto, simulate, resolve) by a hash of the request body: identical
// documents land on the same replica, so their compiled plans are warm,
// without the gateway needing each endpoint's schema.
func (g *Gateway) handleOpaque(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	g.forward(w, r, fmt.Sprintf("opaque:%s:%x", r.URL.Path, fnv1a(string(body))), body)
}

// forward proxies one request to the replica owning key, rerouting to
// ring successors while replicas fail, and relays the upstream response
// (status, error documents included) verbatim.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	tried := 0
	for {
		rep, ok := g.route(key)
		if !ok {
			g.shed.Add(1)
			jobspec.WriteShed(w, http.StatusServiceUnavailable, time.Second, fmt.Errorf("no healthy replica for %s", r.URL.Path))
			return
		}
		resp, respBody, err := g.post(r.Context(), rep, r.URL.Path, body)
		if err != nil && resp == nil {
			if r.Context().Err() != nil {
				jobspec.WriteError(w, http.StatusGatewayTimeout, r.Context().Err())
				return
			}
			g.markDown(rep, err)
			if tried++; tried <= len(g.replicas) {
				g.rerouted.Add(1)
				continue
			}
			jobspec.WriteShed(w, http.StatusServiceUnavailable, time.Second, err)
			return
		}
		// Shed responses that survived the retry budget are relayed as-is:
		// the client sees the upstream's Retry-After and error document.
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody)
		return
	}
}

// handleReadyz answers ready while at least one replica is believed
// healthy: a gateway with a partial cluster still serves (degraded), one
// with no backends should be routed around.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for i := range g.healthy {
		if g.healthy[i].Load() {
			jobspec.WriteProbe(w, true, "ready")
			return
		}
	}
	jobspec.WriteProbe(w, false, "no healthy replicas")
}

// replicaStatsJSON is the per-shard block of the gateway's /stats: the
// replica's identity and health plus the additive part of its own
// /stats.
type replicaStatsJSON struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Reachable distinguishes "marked healthy but /stats failed" from a
	// clean sample; the totals only include reachable replicas.
	Reachable bool                  `json:"reachable"`
	Stats     *jobspec.ServiceStats `json:"stats,omitempty"`
}

// gatewayStatsJSON is the gateway's /stats document: its own counters,
// the per-replica health and stats, and cluster-wide merged totals over
// the reachable replicas (jobspec.ServiceStats.Merge).
type gatewayStatsJSON struct {
	UptimeMs float64            `json:"uptimeMs"`
	Requests map[string]int64   `json:"requests"`
	Rerouted int64              `json:"rerouted"`
	Retried  int64              `json:"retried"`
	Shed     int64              `json:"shed"`
	Replicas []replicaStatsJSON `json:"replicas"`
	Merged   struct {
		Replicas int `json:"replicas"`
		jobspec.ServiceStats
	} `json:"merged"`
}

// handleStats samples every replica's /stats concurrently and answers the
// gateway's own counters, the per-replica breakdown, and the cluster-wide
// sums.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := gatewayStatsJSON{
		UptimeMs: float64(time.Since(g.start).Microseconds()) / 1000,
		Requests: g.requests.Snapshot(),
		Rerouted: g.rerouted.Load(),
		Retried:  g.retried.Load(),
		Shed:     g.shed.Load(),
		Replicas: make([]replicaStatsJSON, len(g.replicas)),
	}
	var wg sync.WaitGroup
	for i := range g.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Replicas[i] = replicaStatsJSON{URL: g.replicas[i], Healthy: g.healthy[i].Load()}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, g.replicas[i]+"/stats", nil)
			if err != nil {
				return
			}
			res, err := g.client.Do(req)
			if err != nil {
				return
			}
			body, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusOK {
				return
			}
			var st jobspec.ServiceStats
			if json.Unmarshal(body, &st) == nil {
				resp.Replicas[i].Reachable = true
				resp.Replicas[i].Stats = &st
			}
		}(i)
	}
	wg.Wait()

	resp.Merged.Requests = map[string]int64{}
	resp.Merged.Methods = map[string]int64{}
	for _, rep := range resp.Replicas {
		if rep.Stats != nil {
			resp.Merged.Replicas++
			resp.Merged.Merge(*rep.Stats)
		}
	}
	jobspec.WriteJSON(w, http.StatusOK, resp)
}
