package jobspec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/pipeline"
)

// resolveDocuments is a table of batch documents for the Resolve tests:
// duplicate jobs, one file-level instance under several rules and
// models, whitespace variants of one instance, and documents whose
// errors come in a fixed order. The batch documents of the gateway's
// wire oracle follow.
func resolveDocuments(t *testing.T) []string {
	inst := pipeline.MotivatingExample()
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	fig1 := buf.String()
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	fig1c := compact.String()
	hom := `{"apps": [{"in": 1, "stages": [{"work": 2, "out": 1}, {"work": 3, "out": 2}]}],
		"platform": {"processors": [{"speeds": [1, 2]}, {"speeds": [1, 2]}, {"speeds": [1, 2]}], "uniformBandwidth": 2}}`
	bad := `{"apps": [{"in": 1, "stages": [{"work": -1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}]}}`
	docs := []string{
		`{"instance": ` + fig1 + `, "jobs": [{"request": {}}, {"request": {"objective": "period"}}, {"request": {}},
			{"request": {"objective": "energy", "periodBound": 2}}, {"request": {"objective": "energy", "periodBound": 2}}]}`,
		`{"instance": ` + hom + `, "jobs": [{"request": {"rule": "one-to-one"}}, {"request": {"model": "no-overlap"}},
			{"request": {"rule": "one-to-one", "model": "no-overlap", "objective": "latency"}}, {"request": {"objective": "latency"}},
			{"request": {"model": "no-overlap", "objective": "energy", "periodBound": 5}}, {"request": {"rule": "one-to-one"}}]}`,
		`{"jobs": [{"instance": ` + fig1 + `, "request": {}}, {"instance": ` + fig1c + `, "request": {}},
			{"instance": ` + strings.ReplaceAll(fig1c, ":", ": ") + `, "request": {"objective": "latency", "periodBound": 2}},
			{"instance": ` + hom + `, "request": {}}, {"instance": ` + fig1c + `, "request": {"objective": "latency", "periodBound": 2}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [{"instance": ` + hom + `, "request": {}}, {"request": {}}, {"instance": ` + fig1c + `, "request": {}}]}`,
		`{"instance": ` + bad + `, "jobs": [{"instance": ` + fig1 + `, "request": {}}]}`,
		`{"instance": ` + bad + `, "jobs": [{"instance": 5, "request": {"rule": "x"}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [{"request": {"rule": "x"}}, {"instance": ` + bad + `, "request": {}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [{"instance": ` + bad + `, "request": {"model": "x"}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [{"instance": ` + fig1c + `, "request": {"objective": "x"}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [{"request": {"model": "x"}}]}`,
		`{"instance": ` + bad + `, "jobs": [{"request": {"model": "x"}}]}`,
		`{"jobs": [{"instance": ` + fig1c + `, "request": {}}, {"request": {}}]}`,
	}
	raw, err := os.ReadFile(filepath.Join("..", "gateway", "testdata", "wire_oracle.json"))
	if err != nil {
		t.Fatal(err)
	}
	var oracle []struct{ Path, Body string }
	if err := json.Unmarshal(raw, &oracle); err != nil {
		t.Fatal(err)
	}
	for _, c := range oracle {
		if c.Path == "/v1/batch" {
			docs = append(docs, c.Body)
		}
	}
	return docs
}

// TestResolveMatchesBatchJobs asserts that jobs resolved through a
// cache's plan tier fail with BatchJobs' error, and otherwise solve to
// the decoded jobs' results with the same batch stats — jobs, cache hits,
// errors, plan compiles and reuses, methods — on a cold cache and again
// on a warm one.
func TestResolveMatchesBatchJobs(t *testing.T) {
	wire, decoded := batch.NewCache(), batch.NewCache()
	solved := 0
	for pass := 0; pass < 2; pass++ {
		for i, body := range resolveDocuments(t) {
			f, err := DecodeFile(strings.NewReader(body))
			if err != nil {
				continue
			}
			plans := wire.Stats().Plans.Entries
			jobs, err := f.Resolve(wire)
			want, wantErr := f.BatchJobs()
			if err != nil || wantErr != nil {
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Errorf("document %d: Resolve fails with %v, BatchJobs with %v", i, err, wantErr)
				}
				if got := wire.Stats().Plans.Entries; got != plans {
					t.Errorf("document %d: the invalid document changed the plan tier from %d to %d entries", i, plans, got)
				}
				continue
			}
			for k := range jobs {
				if jobs[k].Plan == nil || jobs[k].Inst != jobs[k].Plan.Instance() ||
					!reflect.DeepEqual(*jobs[k].Inst, *want[k].Inst) || !reflect.DeepEqual(jobs[k].Req, want[k].Req) {
					t.Errorf("document %d job %d: resolved %+v, decoded %+v", i, k, jobs[k], want[k])
				}
			}
			got, gotStats := batch.Solve(jobs, batch.Options{Cache: wire})
			exp, expStats := batch.Solve(want, batch.Options{Cache: decoded})
			gotOut, err := EncodeOutput(got, gotStats)
			if err != nil {
				t.Fatal(err)
			}
			expOut, err := EncodeOutput(exp, expStats)
			if err != nil {
				t.Fatal(err)
			}
			gotOut.Stats.WallMs, expOut.Stats.WallMs = 0, 0
			if !reflect.DeepEqual(gotOut, expOut) {
				t.Errorf("pass %d document %d: resolved jobs answer %+v\ndecoded jobs answer %+v", pass, i, gotOut, expOut)
			}
			solved++
		}
	}
	if solved < 8 {
		t.Errorf("only %d documents solved; the table no longer compares answers", solved)
	}
}
