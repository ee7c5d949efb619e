package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/servetest"
)

var updateOracle = flag.Bool("update-oracle", false,
	"rewrite testdata/wire_oracle.json from the current replica's answers")

// wireAnswer is a replica's answer to one document: the status and the
// body, with a batch's wall time zeroed.
type wireAnswer struct {
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// replicaCase is one document and the replica's answers to it, on the
// first pass over the table and on the second, when every instance the
// table names has been seen.
type replicaCase struct {
	Name string     `json:"name"`
	Path string     `json:"path"`
	Body string     `json:"body"`
	Cold wireAnswer `json:"cold"`
	Warm wireAnswer `json:"warm"`
}

// wallMs matches the one field of a batch answer that varies run to run.
var wallMs = regexp.MustCompile(`"wallMs":[-+.eE0-9]+`)

// replicaDocuments is the replica wire oracle's table: every document of
// the gateway's wire oracle, then valid documents whose answers depend on
// how a replica resolves instances — duplicate jobs, one file-level
// instance under several rules and models, whitespace variants of one
// instance, a batch repeating a solve, a batch with an unresolved job —
// and documents with bytes after the JSON value.
func replicaDocuments(t *testing.T) []replicaCase {
	var cases []replicaCase
	for _, c := range readOracle[gatewayCase](t, filepath.Join("..", "gateway", "testdata", "wire_oracle.json")) {
		cases = append(cases, replicaCase{Name: "gateway/" + c.Name, Path: c.Path, Body: c.Body})
	}

	fig1 := servetest.Fig1JSON(t)
	fig1Compact := compactJSON(t, fig1)
	fig1Spaced := strings.ReplaceAll(fig1Compact, ",", " ,\t")
	hom := `{"apps": [{"name": "A", "in": 1, "stages": [{"work": 2, "out": 1}, {"work": 3, "out": 2}, {"work": 1, "out": 1}]},
		{"name": "B", "weight": 2, "in": 2, "stages": [{"work": 4, "out": 1}, {"work": 1, "out": 1}]}],
		"platform": {"processors": [{"speeds": [1, 2]}, {"speeds": [1, 2]}, {"speeds": [1, 2]}, {"speeds": [1, 2]}, {"speeds": [1, 2]}, {"speeds": [1, 2]}],
		"uniformBandwidth": 2}}`
	badWork := `{"apps": [{"in": 1, "stages": [{"work": -1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}]}}`
	const (
		period    = `{"objective": "period"}`
		energyPB2 = `{"objective": "energy", "periodBound": 2}`
	)
	job := func(inst, req string) string {
		if inst == "" {
			return `{"request": ` + req + `}`
		}
		return `{"instance": ` + inst + `, "request": ` + req + `}`
	}
	batchOf := func(inst string, jobs ...string) string {
		doc := `{"jobs": [` + strings.Join(jobs, ", ") + `]}`
		if inst != "" {
			doc = `{"instance": ` + inst + `, "jobs": [` + strings.Join(jobs, ", ") + `]}`
		}
		return doc
	}
	rulesAndModels := []string{
		`{"rule": "interval", "model": "overlap", "objective": "period"}`,
		`{"rule": "interval", "model": "no-overlap", "objective": "period"}`,
		`{"rule": "one-to-one", "model": "overlap", "objective": "period"}`,
		`{"rule": "one-to-one", "model": "no-overlap", "objective": "latency"}`,
		`{"rule": "interval", "model": "no-overlap", "objective": "energy", "periodBound": 4}`,
		`{"rule": "interval", "model": "overlap", "objective": "latency", "periodBound": 3}`,
	}
	var shared []string
	for _, req := range rulesAndModels {
		shared = append(shared, job("", req))
	}
	valid := []struct{ name, path, body string }{
		{"solve/fig1-energy", "/v1/solve", job(fig1, energyPB2)},
		{"solve/fig1-compact-energy", "/v1/solve", job(fig1Compact, energyPB2)},
		{"solve/fig1-spaced-period", "/v1/solve", job(fig1Spaced, period)},
		{"solve/hom-latency", "/v1/solve", job(hom, `{"objective": "latency", "periodBound": 3}`)},
		{"solve/hom-one-to-one-no-overlap", "/v1/solve", job(hom, `{"rule": "one-to-one", "model": "no-overlap"}`)},
		{"solve/infeasible", "/v1/solve", job(fig1, `{"objective": "energy", "periodBound": 0.01}`)},
		{"batch/unresolved-at-job-1", "/v1/batch", batchOf(fig1, job("", period),
			job("", `{"objective": "energy", "periodBound": 0.01, "exactLimit": 1}`))},
		{"batch/repeats-solve", "/v1/batch", batchOf(fig1, job("", energyPB2))},
		{"batch/duplicate-jobs", "/v1/batch", batchOf(fig1, job("", period), job("", energyPB2), job("", period),
			job("", `{}`), job("", energyPB2), job("", `{"objective": "energy"}`))},
		{"batch/shared-instance-rules-models", "/v1/batch", batchOf(hom, shared...)},
		{"batch/fig1-rules-models", "/v1/batch", batchOf(fig1, shared...)},
		{"batch/whitespace-variants", "/v1/batch", batchOf("", job(fig1, period), job(fig1Compact, period),
			job(fig1Spaced, energyPB2), job(fig1Compact, energyPB2), job(fig1, `{"objective": "latency", "periodBound": 2}`))},
		{"batch/per-job-and-default", "/v1/batch", batchOf(fig1, job(hom, period), job("", period), job(hom, energyPB2),
			job(fig1Compact, period), job("", `{"rule": "one-to-one"}`))},
		{"batch/invalid-default-unused", "/v1/batch", batchOf(badWork, job(fig1, period))},
		{"batch/invalid-default-after-bad-job-instance", "/v1/batch", batchOf(badWork, job(`5`, period))},
		{"batch/bad-job-instance-before-bad-request", "/v1/batch", batchOf(fig1, job(badWork, `{"rule": "diagonal"}`))},
		{"batch/bad-request-before-bad-later-instance", "/v1/batch", batchOf(fig1, job("", `{"model": "psychic"}`), job(badWork, period))},
		{"batch/bad-request-own-instance", "/v1/batch", batchOf("", job(hom, `{"objective": "vibes"}`))},
		{"solve/trailing-whitespace", "/v1/solve", job(fig1, period) + " \n\t\r\n"},
		{"solve/trailing-garbage", "/v1/solve", job(fig1, period) + " x"},
		{"solve/trailing-document", "/v1/solve", job(fig1, period) + ` {"request": {}}`},
		{"batch/trailing-whitespace", "/v1/batch", batchOf(fig1, job("", period)) + "\n\n "},
		{"batch/trailing-garbage", "/v1/batch", batchOf(fig1, job("", period)) + " x"},
		{"batch/trailing-document", "/v1/batch", batchOf(fig1, job("", period)) + ` {"jobs": []}`},
	}
	for _, c := range valid {
		cases = append(cases, replicaCase{Name: c.name, Path: c.path, Body: c.body})
	}
	return cases
}

// gatewayCase is one document of the gateway's wire oracle and the
// answer the gateway gave it.
type gatewayCase struct {
	Name, Path, Body string
	Status           int
	Answer           string
}

// readOracle reads a recorded wire oracle.
func readOracle[C any](t *testing.T, path string) []C {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []C
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// compactJSON returns doc with the whitespace outside strings removed.
func compactJSON(t *testing.T, doc string) string {
	var v json.RawMessage
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplicaWireOracle pins one replica's answer to every document of
// the table, status and body byte for byte (a batch's wallMs zeroed),
// against testdata/wire_oracle.json: first with an empty cache, then once
// more on the same server, with every instance of the table seen. Run
// with -update-oracle to re-record.
func TestReplicaWireOracle(t *testing.T) {
	s := New(Config{})
	cases := replicaDocuments(t)
	ask := func(c *replicaCase) wireAnswer {
		rec := post(s, c.Path, c.Body)
		servetest.CheckStructuredError(t, c.Name, rec)
		return wireAnswer{Status: rec.Code, Body: wallMs.ReplaceAllString(rec.Body.String(), `"wallMs":0`)}
	}
	for i := range cases {
		cases[i].Cold = ask(&cases[i])
	}
	for i := range cases {
		cases[i].Warm = ask(&cases[i])
	}
	oks := 0
	for _, c := range cases {
		if c.Cold.Status == http.StatusOK {
			oks++
		}
	}
	if oks < 10 {
		t.Errorf("only %d documents answered 200; the table no longer exercises solving", oks)
	}

	path := filepath.Join("testdata", "wire_oracle.json")
	if *updateOracle {
		raw, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readOracle[replicaCase](t, path)
	if len(want) != len(cases) {
		t.Fatalf("oracle has %d cases, the table %d", len(want), len(cases))
	}
	for i, w := range want {
		got := cases[i]
		if got.Name != w.Name || got.Path != w.Path || got.Body != w.Body {
			t.Fatalf("case %d is %s, the oracle recorded %s", i, got.Name, w.Name)
		}
		if got.Cold != w.Cold {
			t.Errorf("%s (cold): answered %d %q\nrecorded %d %q", got.Name, got.Cold.Status, got.Cold.Body, w.Cold.Status, w.Cold.Body)
		}
		if got.Warm != w.Warm {
			t.Errorf("%s (warm): answered %d %q\nrecorded %d %q", got.Name, got.Warm.Status, got.Warm.Body, w.Warm.Status, w.Warm.Body)
		}
	}
}

// TestWireOraclesAgree asserts a document answered through the gateway
// gets one replica's answer: for every document of the gateway's wire
// oracle, the gateway's recorded status and body equal the replica
// oracle's recorded cold answer.
func TestWireOraclesAgree(t *testing.T) {
	gateway := readOracle[gatewayCase](t, filepath.Join("..", "gateway", "testdata", "wire_oracle.json"))
	replica := make(map[string]wireAnswer)
	for _, c := range readOracle[replicaCase](t, filepath.Join("testdata", "wire_oracle.json")) {
		replica[c.Path+" "+c.Body] = c.Cold
	}
	for _, c := range gateway {
		want, ok := replica[c.Path+" "+c.Body]
		if !ok {
			t.Errorf("%s: not in the replica oracle", c.Name)
			continue
		}
		if c.Status != want.Status || c.Answer != want.Body {
			t.Errorf("%s: the gateway answered %d %q\na replica %d %q", c.Name, c.Status, c.Answer, want.Status, want.Body)
		}
	}
}
