package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/servetest"
)

// post runs one request through the full handler stack (middleware
// included) and returns the recorder.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, dst any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
}

// TestSolveBitIdentical checks /v1/solve returns exactly what a direct
// core.Solve call computes: value, provenance, metrics and mapping.
func TestSolveBitIdentical(t *testing.T) {
	s := New(Config{})
	inst := pipeline.MotivatingExample()
	want, err := core.Solve(&inst, core.Request{
		Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
		PeriodBounds: core.UniformBounds(&inst, 2),
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`,
		"request": {"objective": "energy", "periodBound": 2}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Value   float64         `json:"value"`
		Method  string          `json:"method"`
		Optimal bool            `json:"optimal"`
		Period  float64         `json:"period"`
		Latency float64         `json:"latency"`
		Energy  float64         `json:"energy"`
		Mapping json.RawMessage `json:"mapping"`
	}
	decode(t, rec, &resp)
	if resp.Value != want.Value || resp.Method != string(want.Method) || resp.Optimal != want.Optimal {
		t.Errorf("solve = (%g, %q, %v), want (%g, %q, %v)",
			resp.Value, resp.Method, resp.Optimal, want.Value, want.Method, want.Optimal)
	}
	if resp.Period != want.Metrics.Period || resp.Energy != want.Metrics.Energy {
		t.Errorf("metrics = (%g, %g), want (%g, %g)", resp.Period, resp.Energy, want.Metrics.Period, want.Metrics.Energy)
	}
	m, err := mapping.DecodeJSON(bytes.NewReader(resp.Mapping))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want.Mapping) {
		t.Errorf("mapping differs:\ngot  %+v\nwant %+v", m, want.Mapping)
	}
}

// TestBatchMatchesEngine checks /v1/batch mirrors batch.Solve output,
// including per-job errors and cache hits across requests (the server
// cache outlives a request).
func TestBatchMatchesEngine(t *testing.T) {
	s := New(Config{})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [
		{"request": {"objective": "period"}},
		{"request": {"objective": "energy", "periodBound": 2}},
		{"request": {"objective": "energy"}},
		{"request": {"objective": "period"}}
	]}`
	rec := post(s, "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []map[string]any `json:"results"`
		Stats   struct {
			Jobs      int `json:"jobs"`
			CacheHits int `json:"cacheHits"`
			Errors    int `json:"errors"`
		} `json:"stats"`
	}
	decode(t, rec, &out)
	if out.Stats.Jobs != 4 || out.Stats.Errors != 1 {
		t.Fatalf("stats = %+v", out.Stats)
	}
	if v := out.Results[0]["value"].(float64); v != 1 {
		t.Errorf("job 0 value = %g, want 1", v)
	}
	if v := out.Results[1]["value"].(float64); v != 46 {
		t.Errorf("job 1 value = %g, want 46", v)
	}
	if _, ok := out.Results[2]["error"]; !ok {
		t.Error("unsupported job carries no error")
	}
	if out.Stats.CacheHits < 1 {
		t.Errorf("cacheHits = %d, want >= 1 (job 3 duplicates job 0)", out.Stats.CacheHits)
	}

	// A second identical request is answered entirely from the shared
	// server cache — deterministic failures (the unsupported job) are
	// memoized too.
	rec = post(s, "/v1/batch", body)
	decode(t, rec, &out)
	if out.Stats.CacheHits != 4 {
		t.Errorf("second request cacheHits = %d, want 4 (every job)", out.Stats.CacheHits)
	}
}

// TestConcurrentSolveAndBatch hammers the two solving endpoints from many
// goroutines (run with -race): all responses must be correct and the
// bounded shared cache must respect its cap throughout.
func TestConcurrentSolveAndBatch(t *testing.T) {
	const cacheCap = 24
	s := New(Config{CacheCap: cacheCap})
	inst := servetest.Fig1JSON(t)

	stop := make(chan struct{})
	var probe sync.WaitGroup
	probe.Add(1)
	go func() {
		defer probe.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if n := s.Cache().Len(); n > cacheCap {
					t.Errorf("cache holds %d entries, cap %d", n, cacheCap)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 12; n++ {
				bound := 2 + (g*12+n)%40 // mixed workload: 40 distinct keys + repeats
				rec := post(s, "/v1/solve", fmt.Sprintf(`{"instance": %s,
					"request": {"objective": "energy", "periodBound": %d}}`, inst, bound))
				if rec.Code != http.StatusOK {
					t.Errorf("solve bound=%d: status %d: %s", bound, rec.Code, rec.Body.String())
					continue
				}
				var resp struct {
					Value float64 `json:"value"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Value <= 0 {
					t.Errorf("solve bound=%d: bad body %s", bound, rec.Body.String())
				}
				if n%4 == 0 {
					rec := post(s, "/v1/batch", fmt.Sprintf(`{"instance": %s, "jobs": [
						{"request": {"objective": "period"}},
						{"request": {"objective": "energy", "periodBound": %d}}]}`, inst, bound))
					if rec.Code != http.StatusOK {
						t.Errorf("batch: status %d", rec.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	probe.Wait()

	if n := s.Cache().Len(); n > cacheCap {
		t.Fatalf("final cache size %d exceeds cap %d", n, cacheCap)
	}
	if ev := s.Cache().Stats().Evictions; ev == 0 {
		t.Error("no evictions despite 40+ distinct keys against a cap of 24")
	}
}

// TestPanicRecovery registers a panicking route behind the full middleware
// stack: the response must be a 500, the process must survive, and the
// shared cache must keep answering afterwards.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	s.mux.HandleFunc("POST /v1/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	rec := post(s, "/v1/panic", `{}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "handler exploded") {
		t.Errorf("panic error = %q", e.Error)
	}
	// The server (and its cache) keeps working.
	rec = post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "period"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic solve status = %d", rec.Code)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Errorf("inFlight = %d after panic, want 0", got)
	}
}

// TestRequestTimeout checks an expired per-request budget cancels queued
// solver work and reports 504.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Timeout: time.Nanosecond})
	rec := post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "period"}}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, rec, &e)
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("timeout error = %q", e.Error)
	}

	// Batch: the aborted request reports 504 too.
	rec = post(s, "/v1/batch", `{"instance": `+servetest.Fig1JSON(t)+`, "jobs": [{"request": {"objective": "period"}}]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("batch status = %d, want 504", rec.Code)
	}
}

// TestParetoEndpoint checks the frontier document and the degenerate
// queries: an unattainable period target answers null, not an encoding
// error (+Inf has no JSON form).
func TestParetoEndpoint(t *testing.T) {
	s := New(Config{})
	rec := post(s, "/v1/pareto", `{"instance": `+servetest.Fig1JSON(t)+`,
		"rule": "interval", "periodTarget": 2, "energyBudget": 10}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Points []struct {
			Period  float64          `json:"period"`
			Energy  float64          `json:"energy"`
			Mapping *json.RawMessage `json:"mapping"`
		} `json:"points"`
		MinEnergyUnderPeriod *float64 `json:"minEnergyUnderPeriod"`
		MinPeriodUnderEnergy *float64 `json:"minPeriodUnderEnergy"`
	}
	decode(t, rec, &resp)
	if len(resp.Points) == 0 {
		t.Fatal("empty frontier for the motivating example")
	}
	if resp.Points[0].Mapping != nil {
		t.Error("mappings included without includeMappings")
	}
	if resp.MinEnergyUnderPeriod == nil || *resp.MinEnergyUnderPeriod != 46 {
		t.Errorf("minEnergyUnderPeriod = %v, want 46", resp.MinEnergyUnderPeriod)
	}
	if resp.MinPeriodUnderEnergy == nil || *resp.MinPeriodUnderEnergy != 6 {
		t.Errorf("minPeriodUnderEnergy = %v, want 6", resp.MinPeriodUnderEnergy)
	}

	// Degenerate: period target below anything achievable -> null answer.
	rec = post(s, "/v1/pareto", `{"instance": `+servetest.Fig1JSON(t)+`, "periodTarget": 0.0001}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("degenerate status %d: %s", rec.Code, rec.Body.String())
	}
	var raw map[string]json.RawMessage
	decode(t, rec, &raw)
	if string(raw["minEnergyUnderPeriod"]) != "null" {
		t.Errorf("unattainable target rendered %s, want null", raw["minEnergyUnderPeriod"])
	}

	// includeMappings attaches witnesses.
	rec = post(s, "/v1/pareto", `{"instance": `+servetest.Fig1JSON(t)+`, "includeMappings": true}`)
	decode(t, rec, &resp)
	if len(resp.Points) == 0 || resp.Points[0].Mapping == nil {
		t.Error("includeMappings did not attach mappings")
	}
}

// TestSimulateEndpoint solves for a mapping, then replays it through
// /v1/simulate: measured must equal analytic on the motivating example.
func TestSimulateEndpoint(t *testing.T) {
	s := New(Config{})
	inst := pipeline.MotivatingExample()
	res, err := core.Solve(&inst, core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period})
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := mapping.EncodeJSON(&mbuf, &res.Mapping); err != nil {
		t.Fatal(err)
	}
	rec := post(s, "/v1/simulate", `{"instance": `+servetest.Fig1JSON(t)+`, "mapping": `+mbuf.String()+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []struct {
			App             string  `json:"app"`
			MeasuredPeriod  float64 `json:"measuredPeriod"`
			AnalyticPeriod  float64 `json:"analyticPeriod"`
			MeasuredLatency float64 `json:"measuredLatency"`
			AnalyticLatency float64 `json:"analyticLatency"`
		} `json:"results"`
	}
	decode(t, rec, &resp)
	if len(resp.Results) != len(inst.Apps) {
		t.Fatalf("%d results for %d apps", len(resp.Results), len(inst.Apps))
	}
	for _, r := range resp.Results {
		if diff := r.MeasuredPeriod - r.AnalyticPeriod; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: measured period %g != analytic %g", r.App, r.MeasuredPeriod, r.AnalyticPeriod)
		}
		if diff := r.MeasuredLatency - r.AnalyticLatency; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: measured latency %g != analytic %g", r.App, r.MeasuredLatency, r.AnalyticLatency)
		}
	}
}

// TestSimulateDatasetsCap: a datasets count above maxDatasets is refused
// as 400 invalid before the simulator allocates for it; 0 and negative
// counts keep asking for the default.
func TestSimulateDatasetsCap(t *testing.T) {
	s := New(Config{})
	body := func(datasets string) string {
		return `{"instance": ` + servetest.Fig1JSON(t) + `, "mapping": ` + servetest.Fig1Mapping + `, "datasets": ` + datasets + `}`
	}
	for _, c := range []struct {
		datasets string
		status   int
	}{
		{"4611686018427387904", http.StatusBadRequest},
		{fmt.Sprint(maxDatasets + 1), http.StatusBadRequest},
		{fmt.Sprint(maxDatasets), http.StatusOK},
		{"0", http.StatusOK},
		{"-1", http.StatusOK},
	} {
		rec := post(s, "/v1/simulate", body(c.datasets))
		if rec.Code != c.status {
			t.Fatalf("datasets %s: status %d, want %d: %s", c.datasets, rec.Code, c.status, rec.Body.String())
		}
		if c.status != http.StatusOK {
			var e struct{ Code string }
			decode(t, rec, &e)
			if e.Code != jobspec.CodeInvalid {
				t.Errorf("datasets %s: code %q, want invalid", c.datasets, e.Code)
			}
		}
	}
}

// TestEffortCaps: a /v1/solve or /v1/batch request asking for more
// annealing steps, restarts or exact-search room than the wire allows is
// refused as 400 invalid before any solver runs.
func TestEffortCaps(t *testing.T) {
	s := New(Config{})
	for _, field := range []string{`"heurIters": 1000001`, `"heurRestarts": 17`, `"exactLimit": 20000001`} {
		req := `{"objective": "period", ` + field + `}`
		for _, c := range []struct{ path, body string }{
			{"/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": ` + req + `}`},
			{"/v1/batch", `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [{"request": {}}, {"request": ` + req + `}]}`},
		} {
			rec := post(s, c.path, c.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400: %s", c.path, field, rec.Code, rec.Body.String())
			}
			var e struct{ Code string }
			decode(t, rec, &e)
			if e.Code != jobspec.CodeInvalid {
				t.Errorf("%s %s: code %q, want invalid", c.path, field, e.Code)
			}
		}
	}
}

// TestParetoTimeout: the exhaustive frontier honours the request's
// budget. An instance just under the enumeration limit (18,777,636
// mappings, seconds of enumeration) answers 504 soon after its 100 ms
// timeout instead of after the whole walk.
func TestParetoTimeout(t *testing.T) {
	s := New(Config{Timeout: 100 * time.Millisecond})
	start := time.Now()
	rec := post(s, "/v1/pareto", `{"instance": `+servetest.FrontierJSON(t, 5, 9, 4)+`, "rule": "interval"}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d after %v, want 504: %.200s", rec.Code, elapsed, rec.Body.String())
	}
	var e struct{ Code string }
	decode(t, rec, &e)
	if e.Code != jobspec.CodeTimeout {
		t.Errorf("code %q, want timeout", e.Code)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("answered after %v, want within 200ms", elapsed)
	}
}

// TestParetoHugeFrontierIsInvalid: a frontier outside the polynomial
// classes whose mappings are too many to enumerate is refused as 422
// invalid after counting them, without enumerating any.
func TestParetoHugeFrontierIsInvalid(t *testing.T) {
	s := New(Config{})
	start := time.Now()
	rec := post(s, "/v1/pareto", `{"instance": `+servetest.FrontierJSON(t, 7, 7, 3)+`, "rule": "interval"}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	var e struct{ Code string }
	decode(t, rec, &e)
	if e.Code != jobspec.CodeInvalid {
		t.Errorf("code %q, want invalid", e.Code)
	}
	if elapsed > 5*time.Second {
		t.Errorf("refusal took %v: the space was enumerated", elapsed)
	}
}

// TestHealthzAndStats covers the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	s := New(Config{CacheCap: 128})
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "period"}}`)
	post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "period"}}`)

	rec := get(s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	// The flat wire names are pinned here: the gateway's merged block and
	// the benchmark module read the same names.
	var resp struct {
		InFlight     int64            `json:"inFlight"`
		Requests     map[string]int64 `json:"requests"`
		Methods      map[string]int64 `json:"methods"`
		CacheEntries int              `json:"cacheEntries"`
		CacheCap     int              `json:"cacheCap"`
		CacheHits    int64            `json:"cacheHits"`
		HitRate      float64          `json:"hitRate"`
		PlanEntries  int              `json:"planEntries"`
		PlanHits     int64            `json:"planHits"`
		PlanMisses   int64            `json:"planMisses"`
		FrontEntries int              `json:"frontEntries"`
		FrontHits    int64            `json:"frontHits"`
		FrontMisses  int64            `json:"frontMisses"`
	}
	decode(t, rec, &resp)
	if resp.Requests["/v1/solve"] != 2 {
		t.Errorf("solve count = %d, want 2", resp.Requests["/v1/solve"])
	}
	if resp.CacheCap != 128 || resp.CacheEntries == 0 {
		t.Errorf("cache entries/cap = %d/%d, want >0/128", resp.CacheEntries, resp.CacheCap)
	}
	if resp.CacheHits < 1 {
		t.Errorf("cache hits = %d, want >= 1 (duplicate solve)", resp.CacheHits)
	}
	if resp.HitRate <= 0 || resp.HitRate >= 1 {
		t.Errorf("hitRate = %g", resp.HitRate)
	}
	// The first solve compiled the instance's plan (a plan-tier miss); the
	// duplicate body was answered by the front tier (a front hit, counted
	// in cacheHits) and never reached the plan tier.
	if resp.FrontEntries != 1 || resp.FrontMisses != 1 || resp.FrontHits != 1 {
		t.Errorf("front tier entries/misses/hits = %d/%d/%d, want 1/1/1", resp.FrontEntries, resp.FrontMisses, resp.FrontHits)
	}
	if resp.PlanEntries != 1 || resp.PlanMisses != 1 || resp.PlanHits != 0 {
		t.Errorf("plan tier entries/misses/hits = %d/%d/%d, want 1/1/0", resp.PlanEntries, resp.PlanMisses, resp.PlanHits)
	}
	if len(resp.Methods) == 0 {
		t.Error("no per-method counts")
	}
	// InFlight counts only concurrent requests; this sequential one
	// finished before we decoded it, and /stats itself was in flight when
	// it sampled the gauge.
	if resp.InFlight != 1 {
		t.Errorf("inFlight = %d, want 1 (the /stats request itself)", resp.InFlight)
	}
}

// TestUnmatchedPathsShareOneCounter keeps the per-route counter map
// bounded: arbitrary probed paths must not each earn a map entry.
func TestUnmatchedPathsShareOneCounter(t *testing.T) {
	s := New(Config{})
	for _, p := range []string{"/admin", "/.env", "/nope/deeper"} {
		if rec := get(s, p); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", p, rec.Code)
		}
	}
	var resp struct {
		Requests map[string]int64 `json:"requests"`
	}
	decode(t, get(s, "/stats"), &resp)
	if resp.Requests["unmatched"] != 3 {
		t.Errorf("unmatched = %d, want 3 (map: %v)", resp.Requests["unmatched"], resp.Requests)
	}
	for k := range resp.Requests {
		if strings.HasPrefix(k, "/admin") || strings.HasPrefix(k, "/.env") || strings.HasPrefix(k, "/nope") {
			t.Errorf("probed path %q earned its own counter entry", k)
		}
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/solve", `not json`, http.StatusBadRequest},
		{"/v1/solve", `{"request": {"objective": "period"}}`, http.StatusBadRequest}, // no instance
		{"/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"rule": "bogus"}}`, http.StatusBadRequest},
		{"/v1/batch", `{"jobs": []}`, http.StatusBadRequest},
		{"/v1/pareto", `{"rule": "interval"}`, http.StatusBadRequest},                          // no instance
		{"/v1/simulate", `{"instance": ` + servetest.Fig1JSON(t) + `}`, http.StatusBadRequest}, // no mapping
		// Infeasible bounds are a well-formed query with an unsatisfiable
		// answer: 422.
		{"/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "energy", "periodBound": 0.01}}`, http.StatusUnprocessableEntity},
		// Energy without a period bound is the paper's unsupported combination.
		{"/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "energy"}}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		rec := post(s, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("POST %s %.40q: status %d, want %d (%s)", c.path, c.body, rec.Code, c.want, rec.Body.String())
		}
	}
	// Method mismatch: GET on a POST route.
	if rec := get(s, "/v1/solve"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status = %d, want 405", rec.Code)
	}
}
