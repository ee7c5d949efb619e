package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/servetest"
)

// warmPlan puts the plan a /v1/solve body resolves to into s's plan tier,
// without answering the body's query, and reports whether the body names
// a plan (it decodes, and its rule and model parse).
func warmPlan(t *testing.T, s *Server, body string) bool {
	t.Helper()
	var job jobspec.Job
	if jobspec.DecodeStrict(strings.NewReader(body), &job) != nil || job.Instance == nil {
		return false
	}
	rule, err := jobspec.ParseRuleDefault(job.Request.Rule)
	if err != nil {
		return false
	}
	model, err := jobspec.ParseModelDefault(job.Request.Model)
	if err != nil {
		return false
	}
	_, err, _ = s.Cache().PlanForJSON(job.Instance, rule, model)
	return err == nil
}

// TestWirePlanHitIdentity asserts a plan-tier hit answers exactly what a
// cold cache answers, for every solve body of the front tier's identity
// table: once with the plan warm and the query new (a result-memo miss),
// and once more with the query answered (a result-memo hit, the front
// tier bypassed by trailing whitespace). A success equals the encoding of
// core.Solve.
func TestWirePlanHitIdentity(t *testing.T) {
	warmed := 0
	for name, body := range solveBodies(t) {
		cold := post(New(Config{}), "/v1/solve", body)
		s := New(Config{})
		if !warmPlan(t, s, body) {
			continue
		}
		warmed++
		plans := s.Cache().Stats().Plans
		for i, b := range []string{body, body + " "} {
			rec := post(s, "/v1/solve", b)
			if rec.Code != cold.Code || rec.Body.String() != cold.Body.String() {
				t.Errorf("%s (warm %d): answered %d %q, a cold cache %d %q", name, i, rec.Code, rec.Body.String(), cold.Code, cold.Body.String())
			}
		}
		if got := s.Cache().Stats().Plans; got.Hits != plans.Hits+2 || got.Misses != plans.Misses {
			t.Errorf("%s: plan tier hits/misses %d/%d -> %d/%d, want two hits", name, plans.Hits, plans.Misses, got.Hits, got.Misses)
		}
		if cold.Code == http.StatusOK {
			if want := canonicalAnswer(t, body); cold.Body.String() != string(want) {
				t.Errorf("%s: answered %q, core.Solve encodes %q", name, cold.Body.String(), want)
			}
		}
	}
	if warmed < 40 {
		t.Errorf("only %d bodies named a plan; the table no longer exercises plan hits", warmed)
	}
}

// TestBatchJobAfterSolveHitsResultMemo asserts a /v1/batch job with the
// instance and request of an earlier /v1/solve reuses its plan and its
// memoized answer, and answers the same slot.
func TestBatchJobAfterSolveHitsResultMemo(t *testing.T) {
	s := New(Config{})
	fig1 := servetest.Fig1JSON(t)
	req := `{"objective": "energy", "periodBound": 2}`
	solved := post(s, "/v1/solve", `{"instance": `+fig1+`, "request": `+req+`}`)
	if solved.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", solved.Code, solved.Body.String())
	}
	hits := s.Cache().Stats().Hits
	rec := post(s, "/v1/batch", `{"instance": `+fig1+`, "jobs": [{"request": `+req+`}]}`)
	var out struct {
		Results []json.RawMessage `json:"results"`
		Stats   jobspec.Stats     `json:"stats"`
	}
	decode(t, rec, &out)
	if st := out.Stats; st.CacheHits != 1 || st.PlanReuses != 1 || st.PlanCompiles != 0 {
		t.Errorf("batch stats %+v, want one cache hit and one plan reuse", st)
	}
	if got := s.Cache().Stats().Hits; got != hits+1 {
		t.Errorf("result memo hits %d -> %d, want one more", hits, got)
	}
	if slot := string(out.Results[0]) + "\n"; slot != solved.Body.String() {
		t.Errorf("batch slot %q, solve answer %q", slot, solved.Body.String())
	}
}

// TestResolveSharesSolvePlan asserts /v1/resolve resolves its plan by
// the instance bytes, as /v1/solve does: a resolve after a solve on the
// same instance, rule and model is a plan-tier hit and compiles nothing.
func TestResolveSharesSolvePlan(t *testing.T) {
	s := New(Config{})
	fig1 := servetest.Fig1JSON(t)
	if rec := post(s, "/v1/solve", `{"instance": `+fig1+`, "request": {"objective": "period"}}`); rec.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", rec.Code, rec.Body.String())
	}
	before := s.Cache().Stats().Plans
	rec := post(s, "/v1/resolve", `{"instance": `+fig1+`, "request": {"objective": "period"}, "event": {"kind": "proc-fail", "proc": 0}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: %d %s", rec.Code, rec.Body.String())
	}
	if after := s.Cache().Stats().Plans; after.Entries != 1 || after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Errorf("plan tier %+v -> %+v, want one entry and one more hit", before, after)
	}
}

// TestWhitespaceVariantsShareOnePlan asserts instance documents that
// differ only in whitespace compile one plan, whichever endpoint sends
// them.
func TestWhitespaceVariantsShareOnePlan(t *testing.T) {
	s := New(Config{})
	fig1 := servetest.Fig1JSON(t)
	compact := compactJSON(t, fig1)
	spaced := strings.ReplaceAll(compact, ":", " :\n ")
	for _, inst := range []string{fig1, compact, spaced} {
		if rec := post(s, "/v1/solve", `{"instance": `+inst+`, "request": {}}`); rec.Code != http.StatusOK {
			t.Fatalf("solve: %d %s", rec.Code, rec.Body.String())
		}
	}
	batch := `{"instance": ` + spaced + `, "jobs": [{"instance": ` + compact + `, "request": {"objective": "latency", "periodBound": 2}}, {"request": {}}]}`
	if rec := post(s, "/v1/batch", batch); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	if st := s.Cache().Stats().Plans; st.Entries != 1 || st.Misses != 1 {
		t.Errorf("plan tier entries %d, misses %d; want one plan for every variant", st.Entries, st.Misses)
	}
}

// TestInvalidInstanceLeavesPlanTier asserts documents whose instances do
// not decode to valid instances leave a full plan tier as it was: no
// entry, no eviction, no count.
func TestInvalidInstanceLeavesPlanTier(t *testing.T) {
	s := New(Config{CacheCap: 2})
	fig1 := servetest.Fig1JSON(t)
	for _, req := range []string{`{}`, `{"model": "no-overlap"}`} {
		if rec := post(s, "/v1/solve", `{"instance": `+fig1+`, "request": `+req+`}`); rec.Code != http.StatusOK {
			t.Fatalf("solve: %d %s", rec.Code, rec.Body.String())
		}
	}
	before := s.Cache().Stats().Plans
	bad := `{"apps": [{"in": 1, "stages": [{"work": -1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}]}}`
	for _, c := range []struct{ path, body string }{
		{"/v1/solve", `{"instance": ` + bad + `, "request": {}}`},
		{"/v1/solve", `{"instance": {"apps": []}, "request": {}}`},
		{"/v1/batch", `{"instance": ` + bad + `, "jobs": [{"request": {}}]}`},
		{"/v1/batch", `{"instance": ` + fig1 + `, "jobs": [{"request": {}}, {"instance": ` + bad + `, "request": {}}]}`},
		{"/v1/batch", `{"jobs": [{"instance": 5, "request": {}}]}`},
	} {
		if rec := post(s, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %.60q: status %d, want 400", c.path, c.body, rec.Code)
		}
	}
	if after := s.Cache().Stats().Plans; after.Entries != before.Entries || after.Evictions != before.Evictions || after.Misses != before.Misses {
		t.Errorf("invalid instances moved the plan tier from %+v to %+v", before, after)
	}
}

// TestBatchBoundClassHitsResultMemo sends two /v1/batch documents on one
// fully homogeneous instance that ask for energy under period bounds of
// 2.5 and 2.6: the bounds differ but admit the same cycle times (no
// interval of works 3, 1, 4, 1, 5 at speed 1, 2 or 4 takes longer than 2.5
// and at most 2.6), so the second job is a result-memo hit. Each slot is
// jobspec.EncodeResult of core.Solve on its own document's bounds.
func TestBatchBoundClassHitsResultMemo(t *testing.T) {
	app := pipeline.NewUniformApplication("chain", 5, 1)
	for k, w := range []float64{3, 1, 4, 1, 5} {
		app.Stages[k].Work, app.Stages[k].Out = w, 0
	}
	app.In = 0
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{app},
		Platform: pipeline.NewHomogeneousPlatform(4, []float64{1, 2, 4}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	var doc bytes.Buffer
	if err := pipeline.EncodeJSON(&doc, &inst); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	for i, bound := range []string{"2.5", "2.6"} {
		req := `{"rule": "interval", "objective": "energy", "periodBounds": [` + bound + `]}`
		hits := s.Cache().Stats().Hits
		rec := post(s, "/v1/batch", `{"instance": `+doc.String()+`, "jobs": [{"request": `+req+`}]}`)
		var out struct {
			Results []json.RawMessage `json:"results"`
			Stats   jobspec.Stats     `json:"stats"`
		}
		decode(t, rec, &out)
		if want := hits + int64(i); s.Cache().Stats().Hits != want || out.Stats.CacheHits != i {
			t.Errorf("bound %s: result memo hits %d -> %d, batch cacheHits %d; want %d more",
				bound, hits, s.Cache().Stats().Hits, out.Stats.CacheHits, i)
		}
		want := canonicalAnswer(t, `{"instance": `+doc.String()+`, "request": `+req+`}`)
		if slot := string(out.Results[0]) + "\n"; slot != string(want) {
			t.Errorf("bound %s: slot %q, core.Solve encodes %q", bound, slot, want)
		}
	}
}
