// Resilience layer: admission control with load shedding, per-endpoint
// circuit breakers, and the /v1/resolve failure re-solve endpoint. The
// policy pieces live here; ServeHTTP (server.go) wires them in front of
// the solver routes.

package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/jobspec"
	"repro/internal/plan"
)

// admit acquires a slot on the admission gate. It returns ok=false when
// the gate and its wait queue are both full (the caller sheds the
// request), and a non-nil err when the request's context died while
// queued. With admission control disabled (no gate), every request is
// admitted with a no-op release.
func (s *Server) admit(r *http.Request) (release func(), ok bool, err error) {
	if s.sem == nil {
		return func() {}, true, nil
	}
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, true, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, false, nil
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, true, nil
	case <-r.Context().Done():
		return nil, false, r.Context().Err()
	}
}

// breaker is a per-endpoint circuit breaker over deadline overruns.
// Closed, it counts consecutive 504s; at threshold it opens and sheds
// every request for the cooldown. After the cooldown it is half-open:
// exactly one probe request is admitted to test the endpoint — a burst
// arriving at cooldown expiry must not land whole on an endpoint that
// just proved unhealthy — and everything else is shed with a Retry-After
// until the probe reports back. The overrun streak is retained across the
// open period, so a probe that overruns re-opens the circuit while one
// success closes it.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
	probing     bool // a half-open probe is in flight
}

// allow reports whether a request may proceed; probe marks it as the
// single half-open probe (the caller must feed exactly that value back to
// record so the probe slot is released). When the request may not
// proceed, wait is the Retry-After hint: the remaining cooldown while
// open, or the full cooldown while a probe is in flight (the probe's
// verdict is due well within it).
func (b *breaker) allow(now time.Time) (ok, probe bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now.Before(b.openUntil) {
		return false, false, b.openUntil.Sub(now)
	}
	if b.consecutive >= b.threshold {
		// Half-open: the cooldown has passed but the endpoint has not
		// proven itself yet.
		if b.probing {
			return false, false, b.cooldown
		}
		b.probing = true
		return true, true, 0
	}
	return true, false, 0
}

// record feeds one completed request into the breaker, releasing the
// half-open probe slot when the request held it. A 504 is an overrun; a
// shed (429) or an abandoned request (503, the client went away) says
// nothing about the endpoint's health and leaves the streak untouched;
// anything else is a success and closes the circuit.
func (b *breaker) record(now time.Time, status int, probe bool) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		b.abstain(probe)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if status != http.StatusGatewayTimeout {
		b.consecutive = 0
		b.openUntil = time.Time{}
		return
	}
	b.consecutive++
	if b.consecutive >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
}

// abstain reports a request that says nothing about the endpoint's
// health, such as one whose deadline ended while it waited for an
// admission slot: it releases the half-open probe slot when the request
// held it and leaves the streak untouched.
func (b *breaker) abstain(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
}

// state names the breaker's position for /stats.
func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case now.Before(b.openUntil):
		return "open"
	case b.consecutive >= b.threshold:
		return "half-open"
	default:
		return "closed"
	}
}

// statusRecorder captures the response status so ServeHTTP can feed the
// circuit breaker after the handler returns. queueExpired marks a request
// whose deadline ended in the admission queue (Server.gated).
type statusRecorder struct {
	http.ResponseWriter
	status       int
	queueExpired bool
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// resolveRequest is the /v1/resolve document: the pre-fault problem
// (instance + request, exactly the /v1/solve schema) plus the fault
// event to absorb.
type resolveRequest struct {
	Instance json.RawMessage  `json:"instance"`
	Request  jobspec.Request  `json:"request"`
	Event    resolveEventJSON `json:"event"`
}

// resolveEventJSON is the wire form of a chaos.Event. Kind is one of
// proc-fail, mode-drop, weight-drift, slowdown; the other fields apply
// per kind (proc for proc-fail/mode-drop/slowdown, app+stage+factor for
// weight-drift, factor for slowdown).
type resolveEventJSON struct {
	Kind   string  `json:"kind"`
	Proc   int     `json:"proc,omitempty"`
	App    int     `json:"app,omitempty"`
	Stage  int     `json:"stage,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

type migrationDiffJSON struct {
	StagesTotal   int           `json:"stagesTotal"`
	StagesMoved   int           `json:"stagesMoved"`
	ModeChanges   int           `json:"modeChanges"`
	ProcsRetired  []int         `json:"procsRetired,omitempty"`
	ProcsEnrolled []int         `json:"procsEnrolled,omitempty"`
	Disruption    jobspec.Float `json:"disruption"`
}

type resolveResponse struct {
	Event resolveEventJSON `json:"event"`
	// Before is the pre-fault solve, After the re-solve on the mutated
	// instance; both mappings have been replayed through the simulator.
	Before jobspec.Result    `json:"before"`
	After  jobspec.Result    `json:"after"`
	Diff   migrationDiffJSON `json:"diff"`
}

// handleResolve exposes the failure re-solve (internal/chaos): solve the
// pre-fault problem, apply the fault event, re-solve on the mutated
// instance, and answer both results plus the structured migration diff.
// The compiled plan for the pre-fault instance is resolved by its
// instance bytes (jobspec.File.Resolve), so it is the plan /v1/solve and
// /v1/batch resolve the same instance to. A fault the instance
// cannot absorb (last processor failing, event out of range) is a 422
// with code "invalid"; an instance the fault leaves infeasible is a 422
// with code "infeasible".
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var body resolveRequest
	if err := jobspec.DecodeBody(r.Body, &body); err != nil {
		jobspec.WriteError(w, jobspec.DecodeStatus(err), err)
		return
	}
	if body.Instance == nil {
		jobspec.WriteError(w, http.StatusBadRequest, errors.New("resolve request has no instance"))
		return
	}
	kind, err := chaos.ParseKind(body.Event.Kind)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	file := jobspec.File{Instance: body.Instance, Jobs: []jobspec.Job{{Request: body.Request}}}
	jobs, err := file.Resolve(s.cache)
	if err != nil {
		jobspec.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.clamp(jobs)
	job := jobs[0]
	ev := chaos.Event{Kind: kind, Proc: body.Event.Proc, App: body.Event.App,
		Stage: body.Event.Stage, Factor: body.Event.Factor}
	res, err := chaos.ResolveCtx(r.Context(), job.Plan, plan.QueryOf(job.Req), ev)
	if err != nil {
		status := jobspec.ErrorStatus(err)
		if chaos.IsInapplicable(err) {
			status = http.StatusUnprocessableEntity
		}
		jobspec.WriteError(w, status, err)
		return
	}
	before, err := jobspec.EncodeResult(batch.JobResult{Result: res.Before})
	if err != nil {
		jobspec.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	after, err := jobspec.EncodeResult(batch.JobResult{Result: res.After})
	if err != nil {
		jobspec.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	jobspec.WriteJSON(w, http.StatusOK, resolveResponse{
		Event:  body.Event,
		Before: before,
		After:  after,
		Diff: migrationDiffJSON{
			StagesTotal:   res.Diff.StagesTotal,
			StagesMoved:   res.Diff.StagesMoved,
			ModeChanges:   res.Diff.ModeChanges,
			ProcsRetired:  res.Diff.ProcsRetired,
			ProcsEnrolled: res.Diff.ProcsEnrolled,
			Disruption:    jobspec.Float(res.Diff.Disruption),
		},
	})
}
