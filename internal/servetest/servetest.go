// Package servetest holds the HTTP property checks every solver front end
// must pass — pipeserved's handler (internal/server) and pipegateway's
// (internal/gateway) — so one table drives both: every error answers a
// structured JSON document with a code, and an oversized body answers 413.
package servetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Fig1JSON is the Section 2 instance as a JSON document.
func Fig1JSON(t testing.TB) string {
	t.Helper()
	inst := pipeline.MotivatingExample()
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// SlowSolveRequest is within every wire cap and takes about 1.8 s of
// annealing on Figure 1 (2-vCPU x86 host).
const SlowSolveRequest = `{"objective": "energy", "periodBound": 2, "exactLimit": 1, "heurIters": 1000000, "heurRestarts": 16}`

// BudgetSlotJobs are two /v1/batch jobs on Figure 1 for a work ceiling
// too small for any search: the latency job is polynomial and answers in
// full, the period job's search finds no mapping and answers unresolved.
const BudgetSlotJobs = `{"request": {"objective": "latency"}}, {"request": {"objective": "period", "periodBound": 0.5}}`

// Fig1Mapping is a valid interval mapping of the Section 2 instance as a
// JSON document: each application whole on its own processor.
const Fig1Mapping = `{"apps": [{"intervals": [{"from": 0, "to": 2, "proc": 0, "mode": 0}]},
	{"intervals": [{"from": 0, "to": 3, "proc": 1, "mode": 0}]}]}`

// FrontierJSON is a generated instance of one application of the given
// stage count on fully heterogeneous processors of the given mode count,
// for the exhaustive Pareto front. FrontierJSON(t, 7, 7, 3) has
// 43,700,979 interval mappings, past the front's limit of 20 million;
// FrontierJSON(t, 5, 9, 4) has 18,777,636, just under it, so the front
// enumerates them all.
func FrontierJSON(t testing.TB, stages, procs, modes int) string {
	t.Helper()
	inst, err := workload.Instance(rand.New(rand.NewSource(1)), workload.Config{
		Apps: 1, MinStages: stages, MaxStages: stages, Procs: procs, Modes: modes,
		Class: pipeline.FullyHeterogeneous, MaxWork: 9, MaxData: 4, MaxSpeed: 8, MaxBandwidth: 4,
		Energy: pipeline.DefaultEnergy,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// post runs one POST through h and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// CheckStructuredError asserts the error-response invariant: every
// non-2xx response must be a JSON document with a non-empty "error" and
// a non-empty "code" — never a 500 with an empty body, whatever the
// client sent.
func CheckStructuredError(t testing.TB, label string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 200 && rec.Code < 300 {
		return
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: status %d with Content-Type %q, want application/json", label, rec.Code, ct)
	}
	var doc struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: status %d body is not a JSON error document: %v\nbody: %q",
			label, rec.Code, err, rec.Body.String())
	}
	if doc.Error == "" || doc.Code == "" {
		t.Errorf("%s: status %d with empty error or code field\nbody: %q", label, rec.Code, rec.Body.String())
	}
}

// ErrorResponsesAreStructuredJSON drives /v1/pareto and /v1/batch on h
// with seeded random corruptions of valid documents — invalid rule and
// model strings, invalid platform shapes, truncated and garbled bytes,
// wrong JSON types, empty and oversized bodies — and asserts the
// structured-error invariant on every response. h must cap request
// bodies at 64 KiB.
func ErrorResponsesAreStructuredJSON(t *testing.T, h http.Handler) {
	inst := Fig1JSON(t)
	valid := map[string]string{
		"/v1/pareto": fmt.Sprintf(`{"instance": %s, "rule": "interval", "model": "overlap"}`, inst),
		"/v1/batch":  fmt.Sprintf(`{"instance": %s, "jobs": [{"request": {"objective": "period"}}]}`, inst),
	}
	// Each mutation corrupts a valid document; rng picks among them.
	mutations := []func(rng *rand.Rand, doc string) (string, string){
		func(rng *rand.Rand, doc string) (string, string) {
			return "invalid-rule", strings.Replace(doc, `"interval"`, `"diagonal"`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "invalid-model", strings.Replace(doc, `"overlap"`, `"psychic"`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "invalid-objective", strings.Replace(doc, `"period"`, `"vibes"`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			// Invalid platform class shape: processors with no speed sets.
			return "invalid-platform", strings.Replace(doc, `"speeds"`, `"speedz"`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "truncated", doc[:rng.Intn(len(doc))]
		},
		func(rng *rand.Rand, doc string) (string, string) {
			// Flip a handful of bytes anywhere in the document.
			b := []byte(doc)
			for k := 0; k < 1+rng.Intn(4); k++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
			return "garbled", string(b)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "wrong-type", strings.Replace(doc, `[`, `{`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "unknown-field", strings.Replace(doc, `"instance"`, `"instanze"`, 1)
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "empty", ""
		},
		func(rng *rand.Rand, doc string) (string, string) {
			return "oversized", doc[:len(doc)-1] + strings.Repeat(" ", 128<<10) + "}"
		},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		for _, path := range []string{"/v1/pareto", "/v1/batch"} {
			name, body := mutations[rng.Intn(len(mutations))](rng, valid[path])
			rec := post(h, path, body)
			CheckStructuredError(t, fmt.Sprintf("iter %d %s %s", i, path, name), rec)
			if name == "oversized" && rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("iter %d %s oversized body answered %d, want 413", i, path, rec.Code)
			}
		}
	}
	// The untouched documents must still succeed: the handler state cannot
	// have been wedged by any corruption above.
	for path, doc := range valid {
		if rec := post(h, path, doc); rec.Code != http.StatusOK {
			t.Errorf("%s: valid document answers %d after the corruption sweep\n%s", path, rec.Code, rec.Body.String())
		}
	}
}

// OversizedBody is a document over a 1 KiB body cap.
var OversizedBody = `{"pad": "` + strings.Repeat("x", 4096) + `"}`

// OversizedBodyAllEndpoints asserts the body cap protects every POST
// endpoint of capped (which must cap bodies at 1 KiB) with a structured
// 413, and that defaultCap (configured with MaxBody 0) still accepts the
// Section 2 batch document.
func OversizedBodyAllEndpoints(t *testing.T, capped, defaultCap http.Handler) {
	for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/pareto", "/v1/simulate", "/v1/resolve"} {
		rec := post(capped, path, OversizedBody)
		CheckStructuredError(t, path, rec)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body answered %d, want 413\n%s", path, rec.Code, rec.Body.String())
		}
	}
	body := fmt.Sprintf(`{"instance": %s, "jobs": [{"request": {"objective": "period"}}]}`, Fig1JSON(t))
	if rec := post(defaultCap, "/v1/batch", body); rec.Code != http.StatusOK {
		t.Errorf("default cap rejected a normal document: %d\n%s", rec.Code, rec.Body.String())
	}
}
