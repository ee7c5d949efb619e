package jobspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// TestFloatRendersNonFiniteAsNull pins the encoder contract relied on by
// empty-frontier queries: +Inf/-Inf/NaN marshal as null, finite values as
// plain numbers (stdlib json.Marshal errors on non-finite floats).
func TestFloatRendersNonFiniteAsNull(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
		{math.NaN(), "null"},
		{46, "46"},
		{0, "0"},
		{2.75, "2.75"},
	}
	for _, c := range cases {
		got, err := json.Marshal(Float(c.in))
		if err != nil {
			t.Fatalf("Float(%g): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Float(%g) = %s, want %s", c.in, got, c.want)
		}
	}
	// The whole point: a struct holding a non-finite Float must marshal
	// where the same struct with float64 would fail.
	doc := struct {
		Answer Float `json:"answer"`
	}{Answer: Float(math.Inf(1))}
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"answer":null}` {
		t.Errorf("marshal = %s", got)
	}
	if _, err := json.Marshal(struct{ Answer float64 }{math.Inf(1)}); err == nil {
		t.Error("plain float64 +Inf marshalled without error; Float is redundant")
	}
}

func fig1File(t testing.TB, jobs string) File {
	t.Helper()
	inst := pipeline.MotivatingExample()
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeFile(strings.NewReader(`{"instance": ` + buf.String() + `, "jobs": ` + jobs + `}`))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRoundTrip decodes a document, runs it, and re-encodes: values,
// order, errors and stats must survive the trip.
func TestRoundTrip(t *testing.T) {
	doc := fig1File(t, `[
		{"request": {"objective": "period"}},
		{"request": {"objective": "energy", "periodBound": 2}},
		{"request": {"objective": "energy"}}
	]`)
	jobs, err := doc.BatchJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("%d jobs", len(jobs))
	}
	if jobs[1].Req.Objective != core.Energy || jobs[1].Req.PeriodBounds == nil {
		t.Errorf("job 1 request not built: %+v", jobs[1].Req)
	}
	results, stats := batch.Solve(jobs, batch.Options{})
	out, err := EncodeOutput(results, stats)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Value != 1 || out.Results[1].Value != 46 {
		t.Errorf("values = %g, %g, want 1, 46", out.Results[0].Value, out.Results[1].Value)
	}
	if out.Results[2].Error == "" {
		t.Error("unsupported job carries no error")
	}
	if out.Results[2].Mapping != nil {
		t.Error("failed job carries a mapping")
	}
	if out.Stats.Jobs != 3 || out.Stats.Errors != 1 {
		t.Errorf("stats = %+v", out.Stats)
	}
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("output does not marshal: %v", err)
	}
}

// TestBuildRequestDefaultsAndBounds pins defaults and the global-threshold
// expansion.
func TestBuildRequestDefaultsAndBounds(t *testing.T) {
	inst := pipeline.MotivatingExample()
	req, err := BuildRequest(&inst, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if req.Objective != core.Period {
		t.Errorf("default objective = %v", req.Objective)
	}
	req, err = BuildRequest(&inst, Request{Objective: "energy", PeriodBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := core.UniformBounds(&inst, 2)
	if len(req.PeriodBounds) != len(want) || req.PeriodBounds[0] != want[0] {
		t.Errorf("PeriodBounds = %v, want %v", req.PeriodBounds, want)
	}
	// Explicit per-app arrays win over the global form.
	req, err = BuildRequest(&inst, Request{Objective: "energy", PeriodBound: 2, PeriodBounds: []float64{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if req.PeriodBounds[0] != 9 {
		t.Errorf("explicit bounds lost: %v", req.PeriodBounds)
	}
	if _, err = BuildRequest(&inst, Request{Rule: "bogus"}); err == nil {
		t.Error("bogus rule accepted")
	}
}

// TestBuildRequestEffortCaps: heurIters, heurRestarts and exactLimit are
// accepted up to their caps and refused one past them; zero and negative
// values still ask for the solver's defaults.
func TestBuildRequestEffortCaps(t *testing.T) {
	inst := pipeline.MotivatingExample()
	for _, c := range []struct {
		rj Request
		ok bool
	}{
		{Request{HeurIters: maxHeurIters, HeurRestarts: maxHeurRestarts, ExactLimit: maxExactLimit}, true},
		{Request{HeurIters: -1, HeurRestarts: -1, ExactLimit: -1}, true},
		{Request{HeurIters: maxHeurIters + 1}, false},
		{Request{HeurIters: 2_000_000_000}, false},
		{Request{HeurRestarts: maxHeurRestarts + 1}, false},
		{Request{ExactLimit: maxExactLimit + 1}, false},
	} {
		if _, err := BuildRequest(&inst, c.rj); (err == nil) != c.ok {
			t.Errorf("%+v: error %v, want accepted %v", c.rj, err, c.ok)
		}
	}
}

// TestRequestOfRoundTrip pins RequestOf as BuildRequest's inverse over
// the seeded scenario corpus: shipping a generated request through the
// wire form must reproduce the exact engine request, canonical key
// included — the benchmark and the gateway's warm-cache test both ship
// generated requests this way.
func TestRequestOfRoundTrip(t *testing.T) {
	space := gen.DefaultSpace()
	for i := 0; i < 60; i++ {
		sc := space.Sample(7, i)
		rebuilt, err := BuildRequest(&sc.Inst, RequestOf(sc.Req))
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.Name, err)
		}
		if !reflect.DeepEqual(rebuilt, sc.Req) {
			t.Errorf("scenario %d (%s): round trip changed the request:\ngot  %+v\nwant %+v",
				i, sc.Name, rebuilt, sc.Req)
		}
		if batch.Key(&sc.Inst, rebuilt) != batch.Key(&sc.Inst, sc.Req) {
			t.Errorf("scenario %d: canonical key changed across the round trip", i)
		}
	}
}

// TestDecodeFileRejectsMalformed covers the structural validations.
func TestDecodeFileRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		`not json`,
		`{"jobs": []}`,
		`{"jobs": [{"request": {}}], "unknown": 1}`,
	} {
		if _, err := DecodeFile(strings.NewReader(doc)); err == nil {
			t.Errorf("document %q accepted", doc)
		}
	}
	doc, err := DecodeFile(strings.NewReader(`{"jobs": [{"request": {"objective": "period"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.BatchJobs(); err == nil {
		t.Error("job without any instance accepted")
	}
}

// TestEncodeResultError keeps failed slots bare.
func TestEncodeResultError(t *testing.T) {
	rj, err := EncodeResult(batch.JobResult{Err: errors.New("nope")})
	if err != nil {
		t.Fatal(err)
	}
	if rj.Error != "nope" || rj.Method != "" || rj.Mapping != nil {
		t.Errorf("error slot = %+v", rj)
	}
}
