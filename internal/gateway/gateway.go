// Package gateway is the horizontal scale-out front for the pipeserved
// solver service: it cuts each job out of the request bytes, routes it by
// a hash of its instance and request bytes over a consistent-hash ring of
// replicas so every replica's memo and plan caches stay hot for a stable
// slice of the jobs, fans /v1/batch sub-batches out concurrently, and
// reassembles the per-job results in input order.
//
// The gateway decodes no instance of a document it routes, and it never
// decodes a result slot: a /v1/solve body is forwarded verbatim, a
// sub-batch is spliced from the jobs' instance and request bytes as
// sent, and result slots pass through as raw JSON, so a batch answered
// through N replicas is bit-identical to the same batch answered by one
// (non-finite values rendered as null survive; re-encoding would corrupt
// them). The
// replicas validate; when one rejects a sub-batch as invalid, or no
// replica answers for some jobs, the gateway checks the whole document
// itself and answers the error a single replica would have given for an
// invalid one.
//
// The gateway degrades rather than fails: replicas are health-checked
// via their /readyz probes, shed sub-requests (429/503) are retried with
// jittered backoff honoring Retry-After, and when a replica stays down
// its keys reroute to their ring successors. Only when no healthy
// replica remains does a job slot report a structured shed error.
package gateway

import (
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
	// Router maps route keys onto replica indices; nil means a
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
	replicas []string
	client   *http.Client
	router   Router
	retry    Retrier
	maxBody  int64
	log      *log.Logger
	mux      *http.ServeMux
	start    time.Time

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
		replicas: replicas,
		client:   client,
		router:   router,
		maxBody:  cfg.MaxBody,
		log:      logger,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		healthy:  make([]atomic.Bool, len(replicas)),
		rng:      rand.New(rand.NewSource(seed)),
	}
	g.retry = Retrier{Client: client, Retries: retries, Base: retryBase, Jitter: g.jitter,
		OnRetry: func(int, error, time.Duration) { g.retried.Add(1) }}
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

// post sends body to one replica on the gateway's retry schedule
// (Retrier.Post).
func (g *Gateway) post(ctx context.Context, replica int, path string, body []byte) (*http.Response, []byte, error) {
	return g.retry.Post(ctx, g.replicas[replica]+path, body)
}

// jitter draws uniformly from [0, n) from the shared jitter source under
// its lock: math/rand.Rand is not safe for concurrent use, and the
// fan-out calls this from many goroutines.
func (g *Gateway) jitter(n int64) int64 {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return g.rng.Int63n(n)
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

// handleBatch fans a batch out across the ring: the document is cut
// into its jobs' bytes, every job is routed by its route key, and the
// groups are posted concurrently as sub-batches spliced from those
// bytes; the sub-responses' raw result slots are scattered back into
// input order and the sub-batch stats are merged. A group whose replica
// fails (transport error or shed past the retry budget) marks the
// replica down and reroutes to the ring successors; jobs with no healthy
// replica left answer structured shed errors in their slots rather than
// failing the whole batch. A document the gateway cannot cut, and one
// with a slot the gateway filled itself (a replica rejected its
// sub-batch, or none could take it), is checked whole
// (jobspec.DecodeFile, then BatchJobs); an invalid one is answered with
// that check's error.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, readErr := io.ReadAll(r.Body)
	doc, status, err := splitBatch(body, readErr)
	if err != nil {
		jobspec.WriteError(w, status, err)
		return
	}

	startWall := time.Now()
	fo := &fanout{
		doc:     &doc,
		keys:    doc.routeKeys(),
		results: make([]json.RawMessage, len(doc.Jobs)),
		merged:  jobspec.Stats{Methods: make(map[string]int)},
	}
	indices := make([]int, len(doc.Jobs))
	for i := range indices {
		indices[i] = i
	}
	g.dispatch(r.Context(), fo, indices, 0)

	if fo.unanswered {
		if status, invalid := checkBatch(body, readErr); invalid != nil {
			jobspec.WriteError(w, status, invalid)
			return
		}
	}
	fo.merged.WallMs = float64(time.Since(startWall).Microseconds()) / 1000
	jobspec.WriteJSON(w, http.StatusOK, wireOutput{Results: fo.results, Stats: fo.merged})
}

// fanout is one /v1/batch request in flight: the cut document, the jobs'
// route keys, and the result slots and merged stats the sub-batches fill
// (the slots are disjoint per group; mu guards the rest).
type fanout struct {
	doc     *batchDoc
	keys    []string
	results []json.RawMessage

	mu         sync.Mutex
	merged     jobspec.Stats
	unanswered bool // the gateway filled some slots with its own error
}

// dispatch routes the given job indices under the current health view,
// posts one sub-batch per owning replica concurrently, and recurses for
// groups whose replica turned out to be down (depth bounds the recursion:
// each level retires at least one replica).
func (g *Gateway) dispatch(ctx context.Context, fo *fanout, indices []int, depth int) {
	groups := make(map[int][]int)
	var unroutable []int
	for _, idx := range indices {
		rep, ok := g.route(fo.keys[idx])
		if !ok {
			unroutable = append(unroutable, idx)
			continue
		}
		groups[rep] = append(groups[rep], idx)
	}
	if len(unroutable) > 0 {
		g.failSlots(fo, unroutable, jobspec.CodeShed, errors.New("no healthy replica for job"))
	}

	var wg sync.WaitGroup
	for rep, group := range groups {
		wg.Add(1)
		go func(rep int, group []int) {
			defer wg.Done()
			resp, respBody, err := g.post(ctx, rep, "/v1/batch", fo.doc.splice(group))
			if err != nil {
				// The replica is gone or persistently shedding: take it
				// out of the ring and let the group's keys find their
				// successors. Recursion is bounded — every level marks a
				// replica down, and route() answers ok=false once none
				// are left.
				if ctx.Err() != nil {
					g.failSlots(fo, group, jobspec.CodeTimeout, ctx.Err())
					return
				}
				g.markDown(rep, err)
				if depth < len(g.replicas) {
					g.rerouted.Add(int64(len(group)))
					g.dispatch(ctx, fo, group, depth+1)
					return
				}
				g.failSlots(fo, group, jobspec.CodeShed, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				// The replica is up and answered for the sub-batch
				// itself: its budget expired (504), it found the jobs
				// invalid (400), or it failed on them. The slots carry
				// its answer; a 400 also has the whole document checked.
				g.upstreamError(fo, group, rep, resp.StatusCode, respBody)
				return
			}
			var out wireOutput
			if err := json.Unmarshal(respBody, &out); err != nil || len(out.Results) != len(group) {
				if err == nil {
					err = fmt.Errorf("sub-batch answered %d results for %d jobs", len(out.Results), len(group))
				}
				g.failSlots(fo, group, jobspec.CodeInternal, err)
				return
			}
			for i, idx := range group {
				fo.results[idx] = out.Results[i]
			}
			fo.mu.Lock()
			fo.merged.Merge(out.Stats)
			fo.mu.Unlock()
		}(rep, group)
	}
	wg.Wait()
}

// upstreamError fills a group's slots from a replica's non-200 answer to
// its sub-batch: the code of the replica's error document, or, for an
// answer that is none, timeout for a 504 and internal otherwise.
func (g *Gateway) upstreamError(fo *fanout, group []int, rep, status int, body []byte) {
	var doc jobspec.Result
	if json.Unmarshal(body, &doc) != nil || doc.Error == "" {
		doc.Error = truncate(body, 200)
	}
	if doc.Code == "" {
		doc.Code = jobspec.CodeInternal
		if status == http.StatusGatewayTimeout {
			doc.Code = jobspec.CodeTimeout
		}
	}
	g.failSlots(fo, group, doc.Code, fmt.Errorf("replica %s answered %d to a sub-batch: %s",
		g.replicas[rep], status, doc.Error))
}

// failSlots fills a group's result slots with one structured error each
// and counts them in the merged stats. Such a batch is checked whole
// before it is answered: a replica may have rejected it as invalid, or an
// invalid job may have found no replica to reject it.
func (g *Gateway) failSlots(fo *fanout, group []int, code string, err error) {
	if code == jobspec.CodeShed {
		g.shed.Add(int64(len(group)))
	}
	slot := errorSlot(code, err)
	for _, idx := range group {
		fo.results[idx] = slot
	}
	fo.mu.Lock()
	fo.merged.Jobs += len(group)
	fo.merged.Errors += len(group)
	fo.unanswered = true
	fo.mu.Unlock()
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

// handleSolve routes a single solve by the route key of its instance and
// request bytes — the key the same job gets inside a batch, so a
// /v1/solve repeat lands on the replica whose cache holds it — and
// forwards the body verbatim. A body the gateway cannot cut, or one the
// replica rejects as invalid, is checked whole and answered with that
// check's error.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	key, err := solveKey(body)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	g.forward(w, r, key, body, func() error { return checkSolve(body) })
}

// handleOpaque routes an endpoint the gateway does not interpret
// (pareto, simulate, resolve) by a hash of the path and the request
// body: identical documents land on the same replica, so their compiled
// plans are warm, without the gateway needing each endpoint's schema.
func (g *Gateway) handleOpaque(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	g.forward(w, r, hexKey(fnv1a(fnv1a(fnvOffset, r.URL.Path), body)), body, nil)
}

// forward proxies one request to the replica owning key, rerouting to
// ring successors while replicas fail, and relays the upstream response
// (status, error documents included) verbatim — except that a 400 is
// replaced by invalid's error when invalid is set and reports one.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, invalid func() error) {
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
		if resp.StatusCode == http.StatusBadRequest && invalid != nil {
			if err := invalid(); err != nil {
				jobspec.WriteError(w, http.StatusBadRequest, err)
				return
			}
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
