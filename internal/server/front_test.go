package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/servetest"
)

// solveJob decodes a /v1/solve body into the batch job the server solves,
// resolving its instance through c's plan tier as the server does (a nil
// c decodes it and the job carries no plan).
func solveJob(t *testing.T, body string, c *batch.Cache) batch.Job {
	t.Helper()
	var job jobspec.Job
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&job); err != nil {
		t.Fatal(err)
	}
	file := jobspec.File{Instance: job.Instance, Jobs: []jobspec.Job{{Request: job.Request}}}
	jobs, err := file.Resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

// canonicalAnswer is the body the full path writes for a solve body that
// succeeds: jobspec.EncodeResult of core.Solve on the decoded job.
func canonicalAnswer(t *testing.T, body string) []byte {
	t.Helper()
	return clampedAnswer(t, body, 0)
}

// clampedAnswer is canonicalAnswer under a work ceiling: the body a server
// with Config.SolveWork = work writes, core.Solve of the clamped request.
func clampedAnswer(t *testing.T, body string, work int64) []byte {
	t.Helper()
	job := solveJob(t, body, nil)
	res, err := core.Solve(job.Inst, job.Req.Clamp(work))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := jobspec.EncodeResult(batch.JobResult{Result: res})
	if err != nil {
		t.Fatal(err)
	}
	out, err := jobspec.MarshalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// solveBodies is the identity test's table: generator scenarios (every
// platform class, rule, model and criterion; infeasible draws included)
// and the invalid /v1/solve documents of the gateway's wire oracle.
func solveBodies(t *testing.T) map[string]string {
	bodies := make(map[string]string)
	for _, sc := range gen.DefaultSpace().Corpus(7, 48) {
		if sc.Degenerate == gen.DegenProcStarved {
			continue // infeasible by construction; proving it takes seconds
		}
		var inst bytes.Buffer
		if err := pipeline.EncodeJSON(&inst, &sc.Inst); err != nil {
			t.Fatal(err)
		}
		req, err := json.Marshal(jobspec.RequestOf(sc.Req))
		if err != nil {
			t.Fatal(err)
		}
		bodies["scenario/"+sc.Name] = `{"instance": ` + inst.String() + `, "request": ` + string(req) + `}`
	}
	raw, err := os.ReadFile(filepath.Join("..", "gateway", "testdata", "wire_oracle.json"))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []struct {
		Name, Path, Body string
	}
	if err := json.Unmarshal(raw, &oracle); err != nil {
		t.Fatal(err)
	}
	for _, c := range oracle {
		if c.Path == "/v1/solve" {
			bodies["oracle/"+c.Name] = c.Body
		}
	}
	return bodies
}

// TestSolveRepeatIdentity asserts a front-tier hit writes exactly what
// the full path writes: for every body, the first answer (a front miss)
// and the repeated one have the same status, Content-Type and body, a
// success equals the encoding of core.Solve, and every repeated success
// was answered by the front tier.
func TestSolveRepeatIdentity(t *testing.T) {
	s := New(Config{CacheCap: 1024})
	successes := 0
	for name, body := range solveBodies(t) {
		first := post(s, "/v1/solve", body)
		hits := s.front.Stats().Hits
		again := post(s, "/v1/solve", body)
		if first.Code != again.Code || first.Header().Get("Content-Type") != again.Header().Get("Content-Type") ||
			first.Body.String() != again.Body.String() {
			t.Errorf("%s: first answer %d %q %q, repeat %d %q %q", name,
				first.Code, first.Header().Get("Content-Type"), first.Body.String(),
				again.Code, again.Header().Get("Content-Type"), again.Body.String())
			continue
		}
		if first.Code != http.StatusOK {
			servetest.CheckStructuredError(t, name, first)
			continue
		}
		successes++
		if want := canonicalAnswer(t, body); first.Body.String() != string(want) {
			t.Errorf("%s: answered %q, core.Solve encodes %q", name, first.Body.String(), want)
		}
		if got := s.front.Stats().Hits; got != hits+1 {
			t.Errorf("%s: the repeated success was not a front-tier hit (%d -> %d hits)", name, hits, got)
		}
	}
	if successes < 20 {
		t.Errorf("only %d bodies succeeded; the table no longer exercises front-tier hits", successes)
	}
}

// TestSolveBudgetPreemptedNeverReplayed: an answer under a work ceiling is
// a function of the body and the ceiling. Two servers started with the
// same ceiling answer the slow request with byte-identical degraded 200s,
// core.Solve's answer to the clamped request; the repeat on the first is
// a front-tier hit. A server without a ceiling never answers from a
// ceilinged answer: it writes exactly what core.Solve encodes for the
// request as sent.
func TestSolveBudgetPreemptedNeverReplayed(t *testing.T) {
	const work = 16
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": ` + servetest.SlowSolveRequest + `}`
	want := clampedAnswer(t, body, work)
	var res struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(want, &res); err != nil || !res.Degraded {
		t.Fatalf("the clamped request answers %q (%v), want a degraded answer", want, err)
	}
	first, second := New(Config{SolveWork: work}), New(Config{SolveWork: work})
	for i, s := range []*Server{first, first, second} {
		hits := s.front.Stats().Hits
		rec := post(s, "/v1/solve", body)
		if rec.Code != http.StatusOK || rec.Body.String() != string(want) {
			t.Fatalf("send %d under ceiling %d: %d %q, want %q", i+1, work, rec.Code, rec.Body.String(), want)
		}
		if hit := s.front.Stats().Hits == hits+1; hit != (i == 1) {
			t.Errorf("send %d: front-tier hit %v, want %v", i+1, hit, i == 1)
		}
	}
	full := canonicalAnswer(t, body)
	if rec := post(New(Config{}), "/v1/solve", body); rec.Code != http.StatusOK || rec.Body.String() != string(full) {
		t.Fatalf("server without a ceiling: %d %q, want %q", rec.Code, rec.Body.String(), full)
	}
	if string(full) == string(want) {
		t.Errorf("the ceiling changed nothing: both answers are %q", want)
	}
}

// TestSolveBudgetPolynomialAnswersInFull: a polynomial cell is never
// limited, even by a ceiling of one step. The answer is core.Solve's, and
// both tiers keep it.
func TestSolveBudgetPolynomialAnswersInFull(t *testing.T) {
	s := New(Config{SolveWork: 1})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "latency"}}`
	want := canonicalAnswer(t, body)
	if rec := post(s, "/v1/solve", body); rec.Code != http.StatusOK || rec.Body.String() != string(want) {
		t.Fatalf("ceiling 1 on a polynomial cell: %d %q, want %q", rec.Code, rec.Body.String(), want)
	}
	if n, m := s.front.Stats().Entries, s.Cache().Len(); n != 1 || m != 1 {
		t.Fatalf("front tier holds %d and the result memo %d answers, want 1 and 1", n, m)
	}
}

// TestSolveFollowersRunTheirOwnPath holds a body's first request in the
// admission queue, as its front-tier leader, while concurrent identical
// requests wait on it, then ends the leader's context so its answer is
// one the tier does not keep: each waiter must answer from the full path
// itself, and the next request must miss.
func TestSolveFollowersRunTheirOwnPath(t *testing.T) {
	const followers = 4
	s := New(Config{MaxInFlight: 1, MaxQueue: followers + 1})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "energy", "periodBound": 2}}`
	want := canonicalAnswer(t, body)

	s.sem <- struct{}{} // hold the only slot: the leader queues
	ctx, cancel := context.WithCancel(context.Background())
	led := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)).WithContext(ctx))
		led <- rec.Code
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 && s.front.Stats().Misses == 1 })

	answers := make(chan *bytes.Buffer, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(s, "/v1/solve", body)
			if rec.Code != http.StatusOK {
				t.Errorf("follower status %d: %s", rec.Code, rec.Body.String())
			}
			answers <- rec.Body
		}()
	}
	waitFor(t, func() bool { return s.front.Stats().Hits == followers })
	cancel()
	if code := <-led; code == http.StatusOK {
		t.Fatal("the leader whose context ended in the queue answered 200")
	}
	// Every follower now runs the full path and queues for the slot.
	waitFor(t, func() bool { return s.queued.Load() == followers })
	<-s.sem
	wg.Wait()
	close(answers)
	for got := range answers {
		if got.String() != string(want) {
			t.Errorf("follower answered %q, want %q", got.String(), want)
		}
	}
	misses := s.front.Stats().Misses
	if rec := post(s, "/v1/solve", body); rec.Body.String() != string(want) || s.front.Stats().Misses != misses+1 {
		t.Errorf("request after the dropped entry: %q, misses %d -> %d, want a miss answering %q",
			rec.Body.String(), misses, s.front.Stats().Misses, want)
	}
}

// TestSolveBodyOverCap sends bodies whose first JSON value fits under the
// body cap but whose whole body does not. The answers were recorded before
// the handler read bodies whole: a decoder replaying the bytes read and
// the read's error must still answer them byte for byte.
func TestSolveBodyOverCap(t *testing.T) {
	const answer = `{"value":1,"method":"exhaustive search (NP-hard cell)","optimal":true,"period":1,"latency":4,"energy":136,` +
		`"mapping":{"apps":[{"intervals":[{"from":0,"to":2,"proc":0,"mode":1}]},` +
		`{"intervals":[{"from":0,"to":1,"proc":1,"mode":1},{"from":2,"to":3,"proc":2,"mode":1}]}]}}` + "\n"
	const tooLarge = `{"error":"decoding request body: http: request body too large","code":"invalid"}` + "\n"
	const trailing = `{"error":"decoding request body: invalid character 'x' after top-level value","code":"invalid"}` + "\n"
	const limit = 4096
	s := New(Config{MaxBody: limit})
	first := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "period"}}`
	pad := strings.Repeat(" ", limit)
	for _, c := range []struct {
		name, body string
		status     int
		answer     string
	}{
		{"trailing-space", first + pad, http.StatusOK, answer},
		{"trailing-garbage", first + " x" + pad, http.StatusBadRequest, trailing},
		{"value-over-cap", first[:len(first)-1] + pad + "}", http.StatusRequestEntityTooLarge, tooLarge},
	} {
		for rep := 0; rep < 2; rep++ {
			rec := post(s, "/v1/solve", c.body)
			if rec.Code != c.status || rec.Body.String() != c.answer || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s (send %d): answered %d %q, recorded %d %q", c.name, rep+1, rec.Code, rec.Body.String(), c.status, c.answer)
			}
		}
	}
	if n := s.front.Stats().Entries; n != 0 {
		t.Errorf("front tier kept %d bodies read past the cap", n)
	}
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServerSolveHit measures one /v1/solve front-tier hit through
// ServeHTTP, middleware included.
func BenchmarkServerSolveHit(b *testing.B) {
	s := New(Config{CacheCap: 64})
	body := []byte(`{"instance": ` + servetest.Fig1JSON(b) + `, "request": {"objective": "energy", "periodBound": 2}}`)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	serve()
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
	if s.front.Stats().Hits == 0 {
		b.Fatal("no front-tier hit")
	}
}
