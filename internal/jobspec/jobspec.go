// Package jobspec is the JSON wire schema shared by the batch-solving
// front ends — the pipebatch CLI, the pipeserved HTTP service and the
// pipegateway cluster front. It defines the job-file document (a default
// instance plus a list of requests, each optionally carrying its own
// instance), translates it into engine jobs, and encodes per-job results
// and batch statistics back out. It also holds the one /stats schema
// (ServiceStats) and the HTTP serving skeleton both services share (see
// http.go): response and error writers, the body cap, request counters.
//
// Keeping the schema in one package guarantees the CLI and the servers
// accept and emit exactly the same documents: a job file written for
// `pipebatch -in` can be POSTed verbatim to `/v1/batch`.
//
// # Non-finite values
//
// The solver legitimately produces non-finite answers — an empty Pareto
// frontier answers +Inf, an unconstrained bound is +Inf — but
// encoding/json refuses to marshal them. The Float type renders any
// non-finite value as JSON null instead, so degenerate answers reach
// clients as null rather than killing the response with an encoding error.
package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Stable machine-readable error codes carried in Result.Code and in error
// response documents, so clients branch on a code instead of parsing
// message strings (the human-readable "error" text is kept alongside and
// stays free to change).
const (
	// CodeInfeasible: the problem is well-formed but no mapping satisfies
	// the bounds.
	CodeInfeasible = "infeasible"
	// CodeUnresolved: an NP-hard problem past the exact limit spent its
	// search budget without finding a mapping; none is known and none is
	// proven not to exist. Deterministic per request: a larger exactLimit,
	// one the mapping count fits, settles it.
	CodeUnresolved = "unresolved"
	// CodeTimeout: a deadline or budget expired before a trustworthy
	// answer existed; retry with a larger budget.
	CodeTimeout = "timeout"
	// CodeDegraded: a successful solve answered by the heuristic because
	// the exact path was abandoned — the value is an upper bound (see the
	// lowerBound/boundGap fields).
	CodeDegraded = "degraded"
	// CodeShed: the service refused the request to protect itself
	// (admission queue full or circuit breaker open); honor Retry-After.
	CodeShed = "shed"
	// CodeInvalid: the request itself is malformed, oversized, or asks
	// for an unsupported criteria combination or a frontier too large to
	// enumerate.
	CodeInvalid = "invalid"
	// CodeInternal: an unexpected solver failure (a bug, not the client).
	CodeInternal = "internal"
)

// errorClasses gives each engine error class its wire code and HTTP
// status, matched in order with errors.Is. Client-shaped failures
// (infeasible bounds, a search budget spent without a mapping, unsupported
// criteria, a Pareto frontier with too many mappings to enumerate) are
// 422, an expired request budget is 504 and a cancelled one 503; an error
// of no class is internal, 500. An unresolved answer is
// 422, not a 5xx: it is deterministic per request, so the plan's result
// memo keeps it like any solver answer, and a retry of the same request
// gets the same answer.
var errorClasses = []struct {
	err    error
	code   string
	status int
}{
	{core.ErrInfeasible, CodeInfeasible, http.StatusUnprocessableEntity},
	{core.ErrUnresolved, CodeUnresolved, http.StatusUnprocessableEntity},
	{core.ErrUnsupported, CodeInvalid, http.StatusUnprocessableEntity},
	{exact.ErrSearchSpace, CodeInvalid, http.StatusUnprocessableEntity},
	{context.DeadlineExceeded, CodeTimeout, http.StatusGatewayTimeout},
	{context.Canceled, CodeTimeout, http.StatusServiceUnavailable},
}

// errorClass looks err up in errorClasses.
func errorClass(err error) (code string, status int) {
	for _, c := range errorClasses {
		if errors.Is(err, c.err) {
			return c.code, c.status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// ErrorCode classifies an engine error into a stable wire code; nil has
// none.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	code, _ := errorClass(err)
	return code
}

// ErrorStatus maps an engine error to the HTTP status of its class.
func ErrorStatus(err error) int {
	_, status := errorClass(err)
	return status
}

// Float marshals like float64 except that NaN and ±Inf become JSON null
// (encoding/json errors on non-finite values). It is an output-only
// convenience: documents are decoded into plain float64 fields, which only
// accept finite JSON numbers anyway.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// Request is the JSON form of a solver request. Global weighted thresholds
// (PeriodBound, LatencyBound) expand to per-application arrays as X / W_a;
// explicit per-application arrays win over the global forms.
type Request struct {
	Rule          string    `json:"rule,omitempty"`
	Model         string    `json:"model,omitempty"`
	Objective     string    `json:"objective,omitempty"`
	PeriodBound   float64   `json:"periodBound,omitempty"`
	LatencyBound  float64   `json:"latencyBound,omitempty"`
	PeriodBounds  []float64 `json:"periodBounds,omitempty"`
	LatencyBounds []float64 `json:"latencyBounds,omitempty"`
	EnergyBudget  float64   `json:"energyBudget,omitempty"`
	Seed          int64     `json:"seed,omitempty"`
	ExactLimit    int64     `json:"exactLimit,omitempty"`
	HeurIters     int       `json:"heurIters,omitempty"`
	HeurRestarts  int       `json:"heurRestarts,omitempty"`
}

// Job is one entry of a job file: a request plus an optional instance
// overriding the file-level default.
type Job struct {
	Instance json.RawMessage `json:"instance,omitempty"`
	Request  Request         `json:"request"`
}

// File is the top-level batch document.
type File struct {
	// Instance is the default instance, used by jobs without their own.
	Instance json.RawMessage `json:"instance,omitempty"`
	Jobs     []Job           `json:"jobs"`
}

// DecodeFile parses a batch document with DecodeStrict. It validates
// only the document structure; instance decoding happens in BatchJobs so
// per-job errors carry the job index.
func DecodeFile(r io.Reader) (File, error) {
	var doc File
	if err := DecodeStrict(r, &doc); err != nil {
		return File{}, fmt.Errorf("jobspec: decoding job file: %w", err)
	}
	if len(doc.Jobs) == 0 {
		return File{}, fmt.Errorf("jobspec: job file has no jobs")
	}
	return doc, nil
}

// DecodeStrict decodes the one JSON document r holds into dst. It
// rejects unknown fields, and anything but whitespace after the document
// with the error json.Unmarshal gives for it. Bytes that r does not
// deliver, because a read fails after the document (a body cap, say),
// are not inspected. Job files, the servers' request bodies and the
// gateway's cut are all read this way.
func DecodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	rest := io.MultiReader(dec.Buffered(), r)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		for _, c := range buf[:n] {
			switch c {
			case ' ', '\t', '\n', '\r':
				continue
			}
			// c follows a complete value, as it does after "null".
			return json.Unmarshal([]byte{'n', 'u', 'l', 'l', c}, new(any))
		}
		if err != nil {
			return nil
		}
	}
}

// BatchJobs translates the document into engine jobs: every instance is
// decoded and validated once (jobs without their own instance share the
// decoded default), and every request is parsed against its instance.
// It is Resolve without a cache.
func (f *File) BatchJobs() ([]batch.Job, error) { return f.Resolve(nil) }

// Resolve translates the document into engine jobs that carry their
// compiled plans: each job's instance is resolved through c's plan tier
// (batch.Cache.PlanForJSON) under the job's rule and model, so a
// repeated instance is neither decoded nor validated again, and the
// request is parsed against the plan's instance. The default instance is
// resolved once per rule and model. With a nil c, Resolve decodes every
// instance instead and the jobs carry no plan.
//
// Errors come in a fixed order: the default instance's first, whether or
// not a job uses it; then, job by job, the job's instance before its
// request; a job with no instance and no default fails in its turn.
func (f *File) Resolve(c *batch.Cache) ([]batch.Job, error) {
	r := resolver{cache: c, doc: f.Instance, defaults: make(map[planOf]resolved)}
	if f.Instance != nil {
		var err error
		if p, ok := firstDefaultUse(f.Jobs); ok {
			r.defaults[r.slot(p)], err = r.resolve(f.Instance, p, true)
		} else {
			_, err = r.resolve(f.Instance, p, false)
		}
		if err != nil {
			return nil, fmt.Errorf("jobspec: default instance: %w", err)
		}
	}
	jobs := make([]batch.Job, len(f.Jobs))
	for i := range f.Jobs {
		jj := &f.Jobs[i]
		p, ok := planOfRequest(jj.Request)
		var res resolved
		switch {
		case jj.Instance != nil:
			var err error
			if res, err = r.resolve(jj.Instance, p, ok); err != nil {
				return nil, fmt.Errorf("jobspec: job %d instance: %w", i, err)
			}
		case f.Instance == nil:
			return nil, fmt.Errorf("jobspec: job %d has no instance and no default is set", i)
		case ok:
			var err error
			if res, err = r.defaultFor(p); err != nil {
				return nil, fmt.Errorf("jobspec: default instance: %w", err)
			}
		}
		req, err := BuildRequest(res.inst, jj.Request)
		if err != nil {
			return nil, fmt.Errorf("jobspec: job %d: %w", i, err)
		}
		jobs[i] = batch.Job{Inst: res.inst, Req: req, Plan: res.plan, Compiled: res.compiled}
	}
	return jobs, nil
}

// planOf is the part of a request fixed at plan compile time.
type planOf struct {
	rule  mapping.Rule
	model pipeline.CommModel
}

// planOfRequest parses a request's rule and model; ok is false when
// either does not parse (BuildRequest then reports which).
func planOfRequest(rj Request) (p planOf, ok bool) {
	rule, rerr := ParseRuleDefault(rj.Rule)
	model, merr := ParseModelDefault(rj.Model)
	return planOf{rule, model}, rerr == nil && merr == nil
}

// firstDefaultUse returns the rule and model of the first job that uses
// the default instance and whose rule and model parse.
func firstDefaultUse(jobs []Job) (planOf, bool) {
	for i := range jobs {
		if jobs[i].Instance == nil {
			if p, ok := planOfRequest(jobs[i].Request); ok {
				return p, true
			}
		}
	}
	return planOf{}, false
}

// resolved is an instance ready for a job: decoded, and with a cache,
// compiled. compiled reports that resolving it compiled the plan.
type resolved struct {
	inst     *pipeline.Instance
	plan     *plan.Plan
	compiled bool
}

// resolver resolves one document's instances.
type resolver struct {
	cache    *batch.Cache
	doc      json.RawMessage // the default instance
	defaults map[planOf]resolved
}

// resolve resolves the instance document raw for plan p: through the
// plan tier when there is a cache and planned is set (p parsed), by
// decoding it otherwise.
func (r *resolver) resolve(raw json.RawMessage, p planOf, planned bool) (resolved, error) {
	if r.cache == nil || !planned {
		inst, err := pipeline.DecodeJSON(bytes.NewReader(raw))
		if err != nil {
			return resolved{}, err
		}
		return resolved{inst: &inst}, nil
	}
	pl, err, hit := r.cache.PlanForJSON(raw, p.rule, p.model)
	if err != nil {
		return resolved{}, err
	}
	return resolved{inst: pl.Instance(), plan: pl, compiled: !hit}, nil
}

// slot is where the default's resolution for p is kept: per plan with a
// cache, one decoded instance for every plan without.
func (r *resolver) slot(p planOf) planOf {
	if r.cache == nil {
		return planOf{}
	}
	return p
}

// defaultFor returns the default instance resolved for p. The jobs using
// it share the resolution; only the first of them reports the compile.
func (r *resolver) defaultFor(p planOf) (resolved, error) {
	k := r.slot(p)
	res, ok := r.defaults[k]
	if !ok {
		var err error
		if res, err = r.resolve(r.doc, p, true); err != nil {
			return resolved{}, err
		}
	}
	r.defaults[k] = resolved{inst: res.inst, plan: res.plan}
	return res, nil
}

// The effort a wire request may ask of the solver. The library takes any
// value; a request over the network is refused past these caps, so one
// document cannot hold a worker for minutes. The exact limit's cap is the
// search's own leaf limit.
const (
	maxHeurIters    = 1_000_000
	maxHeurRestarts = 16
	maxExactLimit   = exact.DefaultLimit
)

// BuildRequest translates the JSON request into a core.Request, expanding
// the global weighted thresholds into per-application bounds. Defaults:
// interval rule, overlap model, period objective. A bound array must hold
// one bound per application of inst, and heurIters, heurRestarts and
// exactLimit must not exceed their caps.
func BuildRequest(inst *pipeline.Instance, rj Request) (core.Request, error) {
	switch {
	case rj.HeurIters > maxHeurIters:
		return core.Request{}, fmt.Errorf("heurIters %d is above the cap of %d", rj.HeurIters, maxHeurIters)
	case rj.HeurRestarts > maxHeurRestarts:
		return core.Request{}, fmt.Errorf("heurRestarts %d is above the cap of %d", rj.HeurRestarts, maxHeurRestarts)
	case rj.ExactLimit > maxExactLimit:
		return core.Request{}, fmt.Errorf("exactLimit %d is above the cap of %d", rj.ExactLimit, maxExactLimit)
	}
	req := core.Request{
		EnergyBudget: rj.EnergyBudget,
		Seed:         rj.Seed,
		ExactLimit:   rj.ExactLimit,
		HeurIters:    rj.HeurIters,
		HeurRestarts: rj.HeurRestarts,
	}
	var err error
	if req.Rule, err = ParseRuleDefault(rj.Rule); err != nil {
		return core.Request{}, err
	}
	if req.Model, err = ParseModelDefault(rj.Model); err != nil {
		return core.Request{}, err
	}
	if req.Objective, err = pipeline.ParseCriterion(orDefault(rj.Objective, "period")); err != nil {
		return core.Request{}, err
	}
	req.PeriodBounds = rj.PeriodBounds
	if req.PeriodBounds == nil && rj.PeriodBound > 0 {
		req.PeriodBounds = core.UniformBounds(inst, rj.PeriodBound)
	}
	req.LatencyBounds = rj.LatencyBounds
	if req.LatencyBounds == nil && rj.LatencyBound > 0 {
		req.LatencyBounds = core.UniformBounds(inst, rj.LatencyBound)
	}
	if err := core.CheckBounds(inst, req); err != nil {
		return core.Request{}, err
	}
	return req, nil
}

// RequestOf is the inverse of BuildRequest: it renders an engine request
// in wire form, with the bounds as explicit per-application arrays (the
// engine form has no memory of whether a bound came from a global
// threshold). BuildRequest(inst, RequestOf(req)) reproduces req exactly,
// so generated workloads can be shipped to a remote service and solve
// the same problem bit-for-bit.
func RequestOf(req core.Request) Request {
	return Request{
		Rule:          req.Rule.String(),
		Model:         req.Model.String(),
		Objective:     req.Objective.String(),
		PeriodBounds:  req.PeriodBounds,
		LatencyBounds: req.LatencyBounds,
		EnergyBudget:  req.EnergyBudget,
		Seed:          req.Seed,
		ExactLimit:    req.ExactLimit,
		HeurIters:     req.HeurIters,
		HeurRestarts:  req.HeurRestarts,
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// ParseRuleDefault parses a wire rule string, defaulting an empty one to
// "interval". All front ends share these defaults so that the same
// document means the same problem everywhere.
func ParseRuleDefault(s string) (mapping.Rule, error) {
	return mapping.ParseRule(orDefault(s, "interval"))
}

// ParseModelDefault parses a wire communication-model string, defaulting
// an empty one to "overlap".
func ParseModelDefault(s string) (pipeline.CommModel, error) {
	return pipeline.ParseCommModel(orDefault(s, "overlap"))
}

// Result is one output slot; a failed job carries only Error.
type Result struct {
	Value   Float            `json:"value,omitempty"`
	Method  string           `json:"method,omitempty"`
	Optimal bool             `json:"optimal,omitempty"`
	Period  Float            `json:"period,omitempty"`
	Latency Float            `json:"latency,omitempty"`
	Energy  Float            `json:"energy,omitempty"`
	Mapping *json.RawMessage `json:"mapping,omitempty"`
	// Degraded marks a heuristic answer where the exact path was
	// abandoned; LowerBound/BoundGap then report a provable lower bound on
	// the optimum and the gap Value - LowerBound. Preempted marks the
	// subset forced by an expired wall-clock budget.
	Degraded   bool  `json:"degraded,omitempty"`
	Preempted  bool  `json:"preempted,omitempty"`
	LowerBound Float `json:"lowerBound,omitempty"`
	BoundGap   Float `json:"boundGap,omitempty"`
	// Code is the stable machine-readable classification (Code* consts):
	// "degraded" on degraded successes, an error code when Error is set.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// Stats mirrors batch.Stats on the wire.
type Stats struct {
	Jobs      int `json:"jobs"`
	CacheHits int `json:"cacheHits"`
	Errors    int `json:"errors"`
	// PlanCompiles and PlanReuses report the compiled-plan tier: plans
	// built fresh for this batch versus reused from the shared cache.
	PlanCompiles int `json:"planCompiles"`
	PlanReuses   int `json:"planReuses"`
	// Degraded counts successful jobs answered by the heuristic with the
	// exact path abandoned; Preempted the subset forced by an expired
	// per-job budget.
	Degraded  int            `json:"degraded,omitempty"`
	Preempted int            `json:"preempted,omitempty"`
	WallMs    float64        `json:"wallMs"`
	Methods   map[string]int `json:"methods"`
}

// Merge folds the statistics of a batch answered alongside s (a
// gateway's concurrent sub-batches) into s: counters and per-method
// counts add up, and the wall time is the longer of the two.
func (s *Stats) Merge(o Stats) {
	s.Jobs += o.Jobs
	s.CacheHits += o.CacheHits
	s.Errors += o.Errors
	s.PlanCompiles += o.PlanCompiles
	s.PlanReuses += o.PlanReuses
	s.Degraded += o.Degraded
	s.Preempted += o.Preempted
	s.WallMs = max(s.WallMs, o.WallMs)
	addCounts(&s.Methods, o.Methods)
}

// ServiceStats is the additive part of a service's /stats document, the
// one schema pipeserved reports and pipegateway sums across its replicas:
// request gauges and counters, the shared cache's result memo and
// compiled-plan tier (see batch.Cache), and the front tier that answers
// repeated /v1/solve bodies. A job answered from cache counts in
// CacheHits whichever tier answered it: the front tier's hits are added
// to the result memo's there, and also reported on their own.
type ServiceStats struct {
	InFlight int64            `json:"inFlight"`
	Queued   int64            `json:"queued"`
	Shed     int64            `json:"shed"`
	Requests map[string]int64 `json:"requests"`
	Methods  map[string]int64 `json:"methods"`

	CacheEntries int     `json:"cacheEntries"`
	CacheCap     int     `json:"cacheCap"`
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	Evictions    int64   `json:"evictions"`
	HitRate      float64 `json:"hitRate"`

	PlanEntries   int     `json:"planEntries"`
	PlanHits      int64   `json:"planHits"`
	PlanMisses    int64   `json:"planMisses"`
	PlanEvictions int64   `json:"planEvictions"`
	PlanHitRate   float64 `json:"planHitRate"`

	FrontEntries   int   `json:"frontEntries"`
	FrontHits      int64 `json:"frontHits"`
	FrontMisses    int64 `json:"frontMisses"`
	FrontEvictions int64 `json:"frontEvictions"`
}

// NewServiceStats fills the cache fields from a cache snapshot and the
// front tier's counters.
func NewServiceStats(cs batch.CacheStats, front memo.Stats) ServiceStats {
	hits := cs.Hits + front.Hits
	return ServiceStats{
		CacheEntries:   cs.Entries,
		CacheCap:       cs.Cap,
		CacheHits:      hits,
		CacheMisses:    cs.Misses,
		Evictions:      cs.Evictions,
		HitRate:        hitRate(hits, cs.Misses),
		PlanEntries:    cs.Plans.Entries,
		PlanHits:       cs.Plans.Hits,
		PlanMisses:     cs.Plans.Misses,
		PlanEvictions:  cs.Plans.Evictions,
		PlanHitRate:    cs.Plans.HitRate(),
		FrontEntries:   front.Entries,
		FrontHits:      front.Hits,
		FrontMisses:    front.Misses,
		FrontEvictions: front.Evictions,
	}
}

// Merge adds o into s: every counter and gauge is summed, the maps key by
// key, and both hit rates are recomputed from the summed hits and misses
// (never averaged).
func (s *ServiceStats) Merge(o ServiceStats) {
	s.InFlight += o.InFlight
	s.Queued += o.Queued
	s.Shed += o.Shed
	addCounts(&s.Requests, o.Requests)
	addCounts(&s.Methods, o.Methods)

	s.CacheEntries += o.CacheEntries
	s.CacheCap += o.CacheCap
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Evictions += o.Evictions
	s.HitRate = hitRate(s.CacheHits, s.CacheMisses)

	s.PlanEntries += o.PlanEntries
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.PlanEvictions += o.PlanEvictions
	s.PlanHitRate = hitRate(s.PlanHits, s.PlanMisses)

	s.FrontEntries += o.FrontEntries
	s.FrontHits += o.FrontHits
	s.FrontMisses += o.FrontMisses
	s.FrontEvictions += o.FrontEvictions
}

// addCounts adds src into *dst key by key, allocating *dst if needed.
func addCounts[V int | int64](dst *map[string]V, src map[string]V) {
	if *dst == nil {
		*dst = make(map[string]V, len(src))
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

func hitRate(hits, misses int64) float64 {
	return memo.Stats{Hits: hits, Misses: misses}.HitRate()
}

// Output is the batch response document: per-job results in input order
// plus aggregate statistics.
type Output struct {
	Results []Result `json:"results"`
	Stats   Stats    `json:"stats"`
}

// EncodeResult converts one engine result to its wire form.
func EncodeResult(jr batch.JobResult) (Result, error) {
	if jr.Err != nil {
		return Result{Error: jr.Err.Error(), Code: ErrorCode(jr.Err)}, nil
	}
	mj, err := json.Marshal(&jr.Result.Mapping)
	if err != nil {
		return Result{}, err
	}
	raw := json.RawMessage(mj)
	out := Result{
		Value:   Float(jr.Result.Value),
		Method:  string(jr.Result.Method),
		Optimal: jr.Result.Optimal,
		Period:  Float(jr.Result.Metrics.Period),
		Latency: Float(jr.Result.Metrics.Latency),
		Energy:  Float(jr.Result.Metrics.Energy),
		Mapping: &raw,
	}
	if jr.Result.Degraded {
		out.Degraded = true
		out.Code = CodeDegraded
		out.LowerBound = Float(jr.Result.LowerBound)
		out.BoundGap = Float(jr.Result.Value - jr.Result.LowerBound)
	}
	out.Preempted = jr.Result.Preempted
	return out, nil
}

// EncodeStats converts engine statistics to their wire form.
func EncodeStats(s batch.Stats) Stats {
	out := Stats{
		Jobs:         s.Jobs,
		CacheHits:    s.CacheHits,
		Errors:       s.Errors,
		PlanCompiles: s.PlanCompiles,
		PlanReuses:   s.PlanReuses,
		Degraded:     s.Degraded,
		Preempted:    s.Preempted,
		WallMs:       float64(s.Wall.Microseconds()) / 1000,
		Methods:      make(map[string]int, len(s.Methods)),
	}
	for m, n := range s.Methods {
		out.Methods[string(m)] = n
	}
	return out
}

// EncodeOutput builds the full batch response document.
func EncodeOutput(results []batch.JobResult, stats batch.Stats) (Output, error) {
	out := Output{Results: make([]Result, 0, len(results)), Stats: EncodeStats(stats)}
	for i := range results {
		rj, err := EncodeResult(results[i])
		if err != nil {
			return Output{}, err
		}
		out.Results = append(out.Results, rj)
	}
	return out, nil
}
