package gateway

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/servetest"
)

var updateOracle = flag.Bool("update-oracle", false,
	"rewrite testdata/wire_oracle.json from the current gateway's answers")

// oracleCase is one invalid document and the answer the gateway gives it.
type oracleCase struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Body   string `json:"body"`
	Status int    `json:"status"`
	Answer string `json:"answer"`
}

// invalidDocuments is the wire oracle's table: /v1/batch and /v1/solve
// documents a client can get wrong, each at a different layer of the
// decode (syntax, structure, field types, request parsing, instance
// validation, bound arrays of the wrong length), batches whose bad job
// sits behind jobs that route to other replicas, and a request the solver
// cannot settle: an infeasible
// NP-hard problem whose exactLimit of 1 leaves the search no budget, so
// it answers "unresolved", not "infeasible". After them come a /v1/pareto
// frontier with too many mappings to enumerate and a /v1/simulate body
// asking for more datasets than the cap.
func invalidDocuments(t *testing.T) []oracleCase {
	fig1 := servetest.Fig1JSON(t)
	badWork := `{"apps": [{"in": 1, "stages": [{"work": -1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}]}}`
	badLinks := `{"apps": [{"in": 1, "stages": [{"work": 1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}], "bandwidth": [[1, 1]]}}`
	// spread is n valid jobs with distinct requests. On one instance
	// they share a route key and make one sub-batch; a bad job with an
	// instance of its own may route to another replica.
	spread := func(n int) []string {
		var jobs []string
		for i := 0; i < n; i++ {
			jobs = append(jobs, fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 2+float64(i)/8))
		}
		return jobs
	}
	batchOf := func(inst string, jobs ...string) string {
		doc := `{"jobs": [` + strings.Join(jobs, ", ") + `]}`
		if inst != "" {
			doc = `{"instance": ` + inst + `, "jobs": [` + strings.Join(jobs, ", ") + `]}`
		}
		return doc
	}
	// spreadThen is a batch of 11 valid jobs over fig1 whose last job is
	// bad.
	spreadThen := func(bad string) string { return batchOf(fig1, append(spread(11), bad)...) }
	const unresolved = `{"objective": "energy", "periodBound": 0.01, "exactLimit": 1}`
	solveOf := func(inst, req string) string {
		return `{"instance": ` + inst + `, "request": ` + req + `}`
	}

	batch := []struct{ name, body string }{
		{"syntax-error", `{"jobs": [{"request": {]}`},
		{"truncated", batchOf(fig1, spread(3)...)[:200]},
		{"empty-body", ``},
		{"null-document", `null`},
		{"array-document", `[]`},
		{"trailing-garbage", `{"jobs": [{"request": {}}]} }}garbage`},
		{"unknown-top-level-field", `{"instance": ` + fig1 + `, "jobs": [{"request": {}}], "priority": 1}`},
		{"unknown-job-field", batchOf(fig1, `{"request": {}}`, `{"request": {}, "priority": 1}`)},
		{"unknown-request-field", batchOf(fig1, `{"request": {"objectve": "period"}}`)},
		{"jobs-wrong-type", `{"instance": ` + fig1 + `, "jobs": {}}`},
		{"request-wrong-type", batchOf(fig1, `{"request": 5}`)},
		{"request-field-wrong-type", batchOf(fig1, `{"request": {"seed": "x"}}`)},
		{"instance-wrong-type", batchOf(`5`, `{"request": {}}`)},
		{"empty-jobs", batchOf(fig1)},
		{"missing-jobs", `{"instance": ` + fig1 + `}`},
		{"missing-instance-at-job-2", batchOf("", `{"instance": `+fig1+`, "request": {}}`,
			`{"instance": `+fig1+`, "request": {"objective": "latency"}}`, `{"request": {}}`)},
		{"bad-rule-at-job-1", batchOf(fig1, `{"request": {}}`, `{"request": {"rule": "diagonal"}}`)},
		{"bad-model-at-job-1", batchOf(fig1, `{"request": {}}`, `{"request": {"model": "psychic"}}`)},
		{"bad-objective-at-job-1", batchOf(fig1, `{"request": {}}`, `{"request": {"objective": "vibes"}}`)},
		{"invalid-default-instance", batchOf(badWork, `{"request": {}}`)},
		{"invalid-instance-at-job-1", batchOf(fig1, `{"request": {}}`, `{"instance": `+badLinks+`, "request": {}}`)},
		{"non-object-job-at-1", batchOf(fig1, `{"request": {}}`, `7`)},
		{"fanned-out-bad-rule-at-job-11", spreadThen(`{"request": {"rule": "diagonal"}}`)},
		{"fanned-out-bad-objective-at-job-11", spreadThen(`{"request": {"objective": "vibes"}}`)},
		{"fanned-out-invalid-instance-at-job-11", spreadThen(`{"instance": ` + badWork + `, "request": {}}`)},
		{"fanned-out-two-bad-jobs", batchOf(fig1, append(append(spread(5), `{"request": {"model": "psychic"}}`),
			append(spread(5), `{"request": {"rule": "diagonal"}}`)...)...)},
		{"short-period-bounds-at-job-1", batchOf(fig1, `{"request": {}}`, `{"request": {"objective": "latency", "periodBounds": [1]}}`)},
		{"long-latency-bounds-at-job-1", batchOf(fig1, `{"request": {}}`, `{"request": {"latencyBounds": [9, 9, 9]}}`)},
	}
	solve := []struct{ name, body string }{
		{"syntax-error", `{"instance": {]}`},
		{"truncated", solveOf(fig1, `{}`)[:200]},
		{"empty-body", ``},
		{"null-document", `null`},
		{"array-document", `[1]`},
		{"trailing-garbage", solveOf(fig1, `{}`) + ` x`},
		{"unknown-top-level-field", `{"instance": ` + fig1 + `, "request": {}, "priority": 1}`},
		{"unknown-request-field", solveOf(fig1, `{"objectve": "period"}`)},
		{"unknown-request-field-before-wrong-type", solveOf(fig1, `{"objectve": 1, "seed": "x"}`)},
		{"request-wrong-type", solveOf(fig1, `5`)},
		{"unknown-field-before-wrong-type", `{"priority": 1, "request": 5, "instance": ` + fig1 + `}`},
		{"instance-wrong-type", solveOf(`5`, `{}`)},
		{"missing-instance", `{"request": {}}`},
		{"null-instance", solveOf(`null`, `{}`)},
		{"bad-rule", solveOf(fig1, `{"rule": "diagonal"}`)},
		{"bad-model", solveOf(fig1, `{"model": "psychic"}`)},
		{"bad-objective", solveOf(fig1, `{"objective": "vibes"}`)},
		{"invalid-instance-work", solveOf(badWork, `{}`)},
		{"invalid-instance-links", solveOf(badLinks, `{}`)},
		{"unresolved", solveOf(fig1, unresolved)},
		{"short-period-bounds", solveOf(fig1, `{"objective": "latency", "periodBounds": [1]}`)},
		{"empty-latency-bounds", solveOf(fig1, `{"latencyBounds": []}`)},
	}
	var cases []oracleCase
	for _, c := range batch {
		cases = append(cases, oracleCase{Name: "batch/" + c.name, Path: "/v1/batch", Body: c.body})
	}
	for _, c := range solve {
		cases = append(cases, oracleCase{Name: "solve/" + c.name, Path: "/v1/solve", Body: c.body})
	}
	cases = append(cases,
		oracleCase{Name: "pareto/huge-frontier", Path: "/v1/pareto",
			Body: `{"instance": ` + servetest.HugeFrontierJSON(t) + `, "rule": "interval"}`},
		oracleCase{Name: "simulate/datasets-over-cap", Path: "/v1/simulate",
			Body: `{"instance": ` + fig1 + `, "mapping": ` + servetest.Fig1Mapping + `, "datasets": 4611686018427387904}`})
	return cases
}

// TestGatewayWireOracle pins the gateway's answer to every invalid
// document in the table, status and body byte for byte, against the
// answers recorded in testdata/wire_oracle.json, and checks that no
// invalid document takes a replica out of the ring. Run with
// -update-oracle to re-record.
func TestGatewayWireOracle(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	cases := invalidDocuments(t)
	for i := range cases {
		rec := postGateway(g, cases[i].Path, cases[i].Body)
		cases[i].Status, cases[i].Answer = rec.Code, rec.Body.String()
		servetest.CheckStructuredError(t, cases[i].Name, rec)
		if rec.Code < 400 {
			t.Errorf("%s: status %d, want an error", cases[i].Name, rec.Code)
		}
	}

	path := filepath.Join("testdata", "wire_oracle.json")
	if *updateOracle {
		raw, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []oracleCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("oracle has %d cases, the table %d", len(want), len(cases))
	}
	for i, w := range want {
		got := cases[i]
		if got.Name != w.Name || got.Path != w.Path || got.Body != w.Body {
			t.Fatalf("case %d is %s, the oracle recorded %s", i, got.Name, w.Name)
		}
		if got.Status != w.Status || got.Answer != w.Answer {
			t.Errorf("%s: answered %d %q\nrecorded %d %q", got.Name, got.Status, got.Answer, w.Status, w.Answer)
		}
	}

	for i := range urls {
		if !g.Healthy(i) {
			t.Errorf("replica %d marked down by an invalid document", i)
		}
	}
	if n := g.rerouted.Load(); n != 0 {
		t.Errorf("invalid documents rerouted %d jobs", n)
	}
}
