// Package server exposes the solver as a long-running HTTP JSON service —
// the first step of the roadmap's production-scale goal. It wraps the
// concurrent batch engine (internal/batch) behind REST-ish endpoints:
//
//	POST /v1/solve     one request        -> one result
//	POST /v1/batch     pipebatch job file -> per-job results + batch stats
//	POST /v1/pareto    instance + rule    -> period/energy frontier + queries
//	POST /v1/simulate  instance + mapping -> measured vs analytic metrics
//	POST /v1/resolve   instance + request + fault event -> re-solve + diff
//	GET  /healthz      liveness probe (always up while the process lives)
//	GET  /readyz       readiness probe (503 while draining for shutdown)
//	GET  /stats        cache size/hit rate, per-method counts, in-flight
//
// All document schemas are shared with the CLI front ends via
// internal/jobspec, so a job file written for `pipebatch -in` can be
// POSTed verbatim to /v1/batch. So are the response writers, the body
// cap and the /stats schema (jobspec.ServiceStats), which pipegateway
// sums across its replicas.
//
// The server is built for a process that stays up: every request runs
// under a per-request timeout enforced through context cancellation (the
// batch engine stops picking up jobs once the context is done, and a
// search in flight stops at its next poll), request
// bodies are capped (jobspec.LimitBody, configurable, structured 413 on
// overflow), the memo cache is bounded (LRU, configurable entry cap) so
// it can be shared across all requests for the life of the process, and
// a panic in a handler or inside a memoized computation is
// recovered into an error response without wedging concurrent waiters on
// the same cache key. Every error path answers a structured JSON document
// {"error": "...", "code": "..."} — never an empty body (see
// TestPropertyErrorResponses); codes are the stable machine-readable
// vocabulary of internal/jobspec (infeasible, unresolved, timeout,
// degraded, shed, invalid, internal).
//
// In front of that path, /v1/solve has a front tier (jobspec.Front, the
// one pipegateway also runs): a memo keyed by the SHA-256 digest of the
// exact request body, whose value is the finished response — the bytes
// jobspec.AppendResult wrote for it and the solver method. The mapping
// questions have deterministic answers, so a repeated body is answered by
// writing the stored bytes, skipping the decode, validation, canonical
// keys, both cache tiers and the encode; what it writes is exactly what
// the full path would (TestSolveRepeatIdentity). The tier keeps every 200
// answer, as a gateway in front does, and looks up only bodies read whole
// of at most jobspec.FrontMaxBody (16 KiB), keeping no answer larger than
// that. It holds at most Config.CacheCap entries, so it is bounded at
// CacheCap x (32 B + one answer of at most 16 KiB). Concurrent identical
// bodies wait for the first one's answer; when that answer is not kept
// (an error, a timeout), each of them runs the full path itself,
// so no request ever receives another request's timeout. Behind a
// gateway, a replica's tier sees only the gateway tier's misses. /v1/batch
// has no front tier.
//
// On the full path, /v1/solve and /v1/batch bodies are read by
// jobspec.DecodeSolve and jobspec.DecodeBatch, which pipegateway also
// answers invalid documents with. Those two and /v1/resolve resolve each
// job's compiled plan by the bytes of its instance
// (jobspec.File.Resolve): the shared cache's plan tier is keyed by the
// job's rule, model and compact instance document, so a repeated
// instance skips the instance decode, the validation and the canonical
// keys, and only the request is decoded, against the plan's instance.
// /v1/pareto decodes its instance and keys the plan tier canonically;
// the two kinds of key share no entry (see batch.Cache). Every request
// body is decoded with jobspec.DecodeStrict, which rejects unknown
// fields and any bytes after the document but whitespace.
//
// On top of the per-request defenses sits a resilience layer for overload
// and churn (see resilience.go): solver endpoints pass admission control
// (a bounded concurrency gate plus a bounded wait queue; beyond both the
// request is shed with a structured 429 and a Retry-After header), which
// a /v1/solve front-tier hit, and a request waiting for its leader's
// answer, skip: they run no solver. An optional per-endpoint circuit
// breaker trips after consecutive deadline overruns (504s; a request
// whose deadline ends in the admission queue is none) and answers 503 +
// Retry-After to every request on that route, front-tier hits included,
// until a cooldown passes. A positive Config.SolveWork caps each job's
// search effort in steps (core.Request.Clamp), so an NP-hard job past it
// answers a degraded mapping, the same one on every replica with the same
// ceiling, instead of searching on. /v1/batch answers
// are appended as bytes (jobspec.AppendOutput), never built as a
// jobspec.Output.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/jobspec"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the solver worker pool per request; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheCap bounds the shared memoization cache (number of entries)
	// and, separately, the /v1/solve front tier; <= 0 means unbounded. A
	// long-running deployment should set a cap.
	CacheCap int
	// Timeout is the per-request wall-clock budget; 0 disables it. When it
	// expires the request's context is cancelled: queued solver jobs
	// return the context error, a search in flight stops, and the
	// response reports 504.
	Timeout time.Duration
	// MaxBody caps the request body size in bytes; 0 means
	// jobspec.DefaultMaxBody (8 MiB), negative disables the cap. An
	// oversized body is rejected with a structured 413 JSON error instead
	// of an unbounded read.
	MaxBody int64
	// Logger receives panic reports and lifecycle messages; nil discards.
	Logger *log.Logger

	// MaxInFlight bounds the solver requests (POST /v1/*) running
	// concurrently; <= 0 disables admission control. Probe and stats
	// endpoints are never gated, nor is a /v1/solve body the front tier
	// answers.
	MaxInFlight int
	// MaxQueue bounds the solver requests allowed to wait for an
	// admission slot once MaxInFlight are running; a request beyond both
	// is shed with a structured 429 and a Retry-After header. 0 means no
	// queue: shed as soon as the gate is full.
	MaxQueue int
	// SolveWork, if positive, caps each job's search effort, in steps:
	// every job of /v1/solve, /v1/batch and /v1/resolve is clamped to it
	// (core.Request.Clamp) before any key is computed. An answer stays a
	// function of the request, so it is memoized like any other; replicas
	// behind one gateway must share the ceiling, since the gateway's front
	// tier keys answers by the body alone.
	SolveWork int64
	// BreakerThreshold is the number of consecutive deadline overruns
	// (504 responses, other than a request that expired waiting for
	// admission) on one solver endpoint that trips its circuit breaker;
	// <= 0 disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker answers 503 before
	// admitting a probe request; 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// DefaultBreakerCooldown applies when Config.BreakerCooldown is 0.
const DefaultBreakerCooldown = 5 * time.Second

// Server is the HTTP solver service. Create with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg   Config
	cache *batch.Cache
	front *jobspec.Front
	log   *log.Logger
	mux   *http.ServeMux
	start time.Time

	inFlight atomic.Int64
	draining atomic.Bool
	shed     atomic.Int64

	// sem is the admission gate for solver endpoints (nil when
	// MaxInFlight <= 0); queued counts requests waiting on it.
	sem    chan struct{}
	queued atomic.Int64

	// breakers holds one circuit breaker per solver route (nil when
	// BreakerThreshold <= 0). The map is built once in New and only read
	// afterwards, so lookups need no lock.
	breakers map[string]*breaker

	requests jobspec.Counters // per route, see jobspec.RouteKey
	methods  jobspec.Counters // solved jobs per solver method
}

// New builds a Server with a fresh bounded cache.
func New(cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:   cfg,
		cache: batch.NewCacheCap(cfg.CacheCap),
		front: jobspec.NewFront(cfg.CacheCap),
		log:   logger,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/pareto", s.handlePareto)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/resolve", s.handleResolve)
	s.mux.HandleFunc("GET /healthz", jobspec.Healthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.BreakerThreshold > 0 {
		cooldown := cfg.BreakerCooldown
		if cooldown == 0 {
			cooldown = DefaultBreakerCooldown
		}
		s.breakers = make(map[string]*breaker)
		for _, route := range []string{"/v1/solve", "/v1/batch", "/v1/pareto", "/v1/simulate", "/v1/resolve"} {
			s.breakers[route] = &breaker{threshold: cfg.BreakerThreshold, cooldown: cooldown}
		}
	}
	return s
}

// SetDraining flips the readiness probe: while draining, GET /readyz
// answers 503 so load balancers stop routing new work here, while
// /healthz stays up and in-flight requests run to completion. Call it
// before http.Server.Shutdown for a clean drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Cache exposes the shared memoization cache (for stats and tests).
func (s *Server) Cache() *batch.Cache { return s.cache }

// ServeHTTP implements http.Handler: it tracks in-flight requests, applies
// the per-request timeout, and converts a handler panic into a 500 instead
// of killing the process.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	route := jobspec.RouteKey(s.mux, r)
	s.requests.Add(route, 1)

	if s.cfg.Timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	jobspec.LimitBody(w, r, s.cfg.MaxBody)

	defer func() {
		if rec := recover(); rec != nil {
			s.log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
			jobspec.WriteError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}
	}()

	// Solver endpoints pass the resilience gauntlet: circuit breaker
	// first (cheap, sheds while a route is known-overrun), then the
	// admission gate. Probes and stats always go straight through, and
	// /v1/solve passes the gate in handleSolve, past its front tier.
	if !strings.HasPrefix(route, "/v1/") {
		s.mux.ServeHTTP(w, r)
		return
	}
	if br := s.breakers[route]; br != nil {
		ok, probe, wait := br.allow(time.Now())
		if !ok {
			s.shed.Add(1)
			jobspec.WriteShed(w, http.StatusServiceUnavailable, wait,
				fmt.Errorf("circuit open for %s after repeated deadline overruns; retry after %v", route, wait.Round(time.Millisecond)))
			return
		}
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		w = sr
		defer func() {
			if sr.queueExpired {
				br.abstain(probe)
				return
			}
			br.record(time.Now(), sr.status, probe)
		}()
	}
	if route == "/v1/solve" {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.gated(w, r, func() { s.mux.ServeHTTP(w, r) })
}

// gated runs serve once r holds a slot of the admission gate. A request
// that finds the gate and its queue full is shed with a 429. One whose
// deadline ends while it queues is answered with its context's error,
// and it is marked on the breaker's recorder, if there is one, as a
// request that never reached the endpoint.
func (s *Server) gated(w http.ResponseWriter, r *http.Request, serve func()) {
	release, ok, err := s.admit(r)
	if err != nil {
		if sr, isRec := w.(*statusRecorder); isRec {
			sr.queueExpired = true
		}
		jobspec.WriteError(w, jobspec.ErrorStatus(err), fmt.Errorf("request expired waiting for admission: %w", err))
		return
	}
	if !ok {
		s.shed.Add(1)
		jobspec.WriteShed(w, http.StatusTooManyRequests, time.Second,
			fmt.Errorf("server saturated: %d requests in flight and %d queued; retry later",
				s.cfg.MaxInFlight, s.cfg.MaxQueue))
		return
	}
	defer release()
	serve()
}

// batchOptions are the engine options every request shares: the bounded
// worker pool and the server-lifetime cache.
func (s *Server) batchOptions() batch.Options {
	return batch.Options{Workers: s.cfg.Workers, Cache: s.cache}
}

// clamp lowers the effort of every decoded job to the SolveWork ceiling.
func (s *Server) clamp(jobs []batch.Job) {
	for i := range jobs {
		jobs[i].Req = jobs[i].Req.Clamp(s.cfg.SolveWork)
	}
}

// countMethods folds a batch's per-method counts into the server totals.
func (s *Server) countMethods(stats batch.Stats) {
	for m, n := range stats.Methods {
		s.methods.Add(string(m), int64(n))
	}
}

// handleSolve answers one request through the front tier
// (jobspec.Front): a repeated body is answered with the stored bytes of
// its first answer, without waiting for an admission slot, and counts its
// method again; everything else runs the full path (solve), which holds
// an admission slot.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	body, readErr := io.ReadAll(r.Body)
	s.front.Serve(ctx, body, readErr, func(a jobspec.FrontAnswer) {
		s.methods.Add(string(a.Method), 1)
		jobspec.WriteRaw(w, http.StatusOK, a.Body)
	}, func() (a jobspec.FrontAnswer) {
		s.gated(w, r, func() { a = s.solve(ctx, w, jobspec.Replay(body, readErr)) })
		return a
	})
}

// solve runs one request through the engine (sharing the cache and worker
// pool with every other endpoint) and writes the jobspec result document.
// Results are bit-identical to calling repro.Solve on the clamped request.
// It returns the answer the front tier keeps: a 200's, and no Body for
// any other.
func (s *Server) solve(ctx context.Context, w http.ResponseWriter, body io.Reader) jobspec.FrontAnswer {
	jobs, status, err := jobspec.DecodeSolve(body, s.cache)
	if err != nil {
		jobspec.WriteError(w, status, err)
		return jobspec.FrontAnswer{}
	}
	s.clamp(jobs)
	results, stats := batch.SolveCtx(ctx, jobs, s.batchOptions())
	s.countMethods(stats)
	if err := results[0].Err; err != nil {
		jobspec.WriteError(w, jobspec.ErrorStatus(err), err)
		return jobspec.FrontAnswer{}
	}
	out := append(jobspec.AppendResult(nil, results[0]), '\n')
	jobspec.WriteRaw(w, http.StatusOK, out)
	return jobspec.FrontAnswer{Body: out, Method: results[0].Result.Method}
}

// handleBatch accepts a pipebatch job file and responds with the pipebatch
// output document. Per-job solver failures are reported in their slots and
// do not fail the request; an expired request budget does (504), since the
// remaining slots only carry the context error.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	jobs, status, err := jobspec.DecodeBatch(r.Body, s.cache)
	if err != nil {
		jobspec.WriteError(w, status, err)
		return
	}
	s.clamp(jobs)
	results, stats := batch.SolveCtx(r.Context(), jobs, s.batchOptions())
	s.countMethods(stats)
	// Abort only if the expired budget actually cancelled jobs: deciding
	// from the result slots (rather than re-reading the context) keeps a
	// batch whose last job finished just before the deadline a success.
	cancelled := 0
	var ctxErr error
	for i := range results {
		if err := results[i].Err; errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			cancelled++
			ctxErr = err
		}
	}
	if cancelled > 0 {
		jobspec.WriteError(w, jobspec.ErrorStatus(ctxErr), fmt.Errorf("batch aborted with %d of %d jobs cancelled: %w",
			cancelled, stats.Jobs, ctxErr))
		return
	}
	jobspec.WriteRaw(w, http.StatusOK, jobspec.AppendOutput(nil, results, stats))
}

// paretoRequest is the /v1/pareto document.
type paretoRequest struct {
	Instance json.RawMessage `json:"instance"`
	Rule     string          `json:"rule,omitempty"`
	Model    string          `json:"model,omitempty"`
	// PeriodTarget, if present, asks the server problem: the least energy
	// whose period does not exceed the target.
	PeriodTarget *float64 `json:"periodTarget,omitempty"`
	// EnergyBudget, if present, asks the laptop problem: the best period
	// achievable within the budget.
	EnergyBudget *float64 `json:"energyBudget,omitempty"`
	// IncludeMappings attaches each frontier point's witness mapping.
	IncludeMappings bool `json:"includeMappings,omitempty"`
}

type paretoPointJSON struct {
	Period  jobspec.Float    `json:"period"`
	Energy  jobspec.Float    `json:"energy"`
	Mapping *json.RawMessage `json:"mapping,omitempty"`
}

type paretoResponse struct {
	Points []paretoPointJSON `json:"points"`
	// The answers are null (not absent) when the frontier cannot satisfy
	// the query: +Inf has no JSON encoding.
	MinEnergyUnderPeriod *jobspec.Float `json:"minEnergyUnderPeriod,omitempty"`
	MinPeriodUnderEnergy *jobspec.Float `json:"minPeriodUnderEnergy,omitempty"`
}

// handlePareto builds the period/energy frontier for the instance and
// optionally answers the paper's server and laptop problems on it. An
// empty frontier with a query answers null (the +Inf degenerate case).
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var body paretoRequest
	if err := jobspec.DecodeBody(r.Body, &body); err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	if body.Instance == nil {
		jobspec.WriteError(w, http.StatusBadRequest, errors.New("pareto request has no instance"))
		return
	}
	inst, err := pipeline.DecodeJSON(bytes.NewReader(body.Instance))
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	rule, err := jobspec.ParseRuleDefault(body.Rule)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	model, err := jobspec.ParseModelDefault(body.Model)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	front, err := pareto.PeriodEnergyCtx(r.Context(), &inst, rule, model, s.batchOptions())
	if err != nil {
		jobspec.WriteError(w, jobspec.ErrorStatus(err), err)
		return
	}
	resp := paretoResponse{Points: make([]paretoPointJSON, 0, len(front))}
	for i := range front {
		pt := paretoPointJSON{Period: jobspec.Float(front[i].Period), Energy: jobspec.Float(front[i].Energy)}
		if body.IncludeMappings {
			mj, err := json.Marshal(&front[i].Mapping)
			if err != nil {
				jobspec.WriteError(w, http.StatusInternalServerError, err)
				return
			}
			raw := json.RawMessage(mj)
			pt.Mapping = &raw
		}
		resp.Points = append(resp.Points, pt)
	}
	if body.PeriodTarget != nil {
		v := jobspec.Float(pareto.MinEnergyUnderPeriod(front, *body.PeriodTarget))
		resp.MinEnergyUnderPeriod = &v
	}
	if body.EnergyBudget != nil {
		v := jobspec.Float(pareto.MinPeriodUnderEnergy(front, *body.EnergyBudget))
		resp.MinPeriodUnderEnergy = &v
	}
	jobspec.WriteJSON(w, http.StatusOK, resp)
}

// simulateRequest is the /v1/simulate document.
type simulateRequest struct {
	Instance json.RawMessage `json:"instance"`
	Mapping  json.RawMessage `json:"mapping"`
	Model    string          `json:"model,omitempty"`
	Datasets int             `json:"datasets,omitempty"`
}

type simAppJSON struct {
	App             string        `json:"app"`
	MeasuredPeriod  jobspec.Float `json:"measuredPeriod"`
	MeasuredLatency jobspec.Float `json:"measuredLatency"`
	AnalyticPeriod  jobspec.Float `json:"analyticPeriod"`
	AnalyticLatency jobspec.Float `json:"analyticLatency"`
}

type simulateResponse struct {
	Results []simAppJSON `json:"results"`
}

// maxDatasets caps a /v1/simulate request's datasets: the simulator holds
// one float64 per data set and application, so an unchecked count is an
// allocation the client chooses. The default for Figure 1 is under 200.
const maxDatasets = 100_000

// handleSimulate replays a mapping through the discrete-event simulator
// and reports measured next to analytic period and latency per
// application (the same numbers pipesim prints as a table). A datasets
// value of 0 or less asks for the simulator's default; one above
// maxDatasets is refused as invalid.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var body simulateRequest
	if err := jobspec.DecodeBody(r.Body, &body); err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	if body.Instance == nil || body.Mapping == nil {
		jobspec.WriteError(w, http.StatusBadRequest, errors.New("simulate request needs instance and mapping"))
		return
	}
	if body.Datasets > maxDatasets {
		jobspec.WriteError(w, http.StatusBadRequest, fmt.Errorf("simulate request asks for %d datasets, at most %d", body.Datasets, maxDatasets))
		return
	}
	inst, err := pipeline.DecodeJSON(bytes.NewReader(body.Instance))
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	m, err := mapping.DecodeJSON(bytes.NewReader(body.Mapping))
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := m.Validate(&inst, mapping.Interval); err != nil {
		jobspec.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	model, err := jobspec.ParseModelDefault(body.Model)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	results, err := sim.Simulate(&inst, &m, model, sim.Options{Datasets: body.Datasets})
	if err != nil {
		jobspec.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	resp := simulateResponse{Results: make([]simAppJSON, 0, len(results))}
	for a, res := range results {
		name := inst.Apps[a].Name
		if name == "" {
			name = fmt.Sprintf("app%d", a+1)
		}
		resp.Results = append(resp.Results, simAppJSON{
			App:             name,
			MeasuredPeriod:  jobspec.Float(res.SteadyPeriod),
			MeasuredLatency: jobspec.Float(res.FirstLatency),
			AnalyticPeriod:  jobspec.Float(mapping.AppPeriod(&inst, &m, a, model)),
			AnalyticLatency: jobspec.Float(mapping.AppLatency(&inst, &m, a)),
		})
	}
	jobspec.WriteJSON(w, http.StatusOK, resp)
}

// handleReadyz is readiness: 503 while the server drains for shutdown so
// load balancers route new work elsewhere, 200 otherwise. Liveness
// (jobspec.Healthz) and readiness are deliberately separate probes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jobspec.WriteProbe(w, false, "draining")
		return
	}
	jobspec.WriteProbe(w, true, "ready")
}

// statsResponse is the /stats document: the additive schema the gateway
// merges across replicas, plus this process's own non-additive fields.
type statsResponse struct {
	jobspec.ServiceStats
	UptimeMs float64           `json:"uptimeMs"`
	Draining bool              `json:"draining"`
	Breakers map[string]string `json:"breakers,omitempty"`
}

// handleStats reports the operational counters: in-flight, queued and
// shed requests, per-route and per-method totals, both cache tiers' size,
// cap, hit rate and eviction count, and the /v1/solve front tier's.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		ServiceStats: jobspec.NewServiceStats(s.cache.Stats(), s.front.Stats()),
		UptimeMs:     float64(time.Since(s.start).Microseconds()) / 1000,
		Draining:     s.draining.Load(),
	}
	resp.InFlight = s.inFlight.Load()
	resp.Queued = s.queued.Load()
	resp.Shed = s.shed.Load()
	resp.Requests = s.requests.Snapshot()
	resp.Methods = s.methods.Snapshot()
	if len(s.breakers) > 0 {
		resp.Breakers = make(map[string]string, len(s.breakers))
		now := time.Now()
		for route, br := range s.breakers {
			resp.Breakers[route] = br.state(now)
		}
	}
	jobspec.WriteJSON(w, http.StatusOK, resp)
}
