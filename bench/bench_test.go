package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/batch"
	"repro/internal/gateway"
	"repro/internal/jobspec"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts res emits exactly the metrics of want, each with
// its unit, and that every metric resting on samples has some.
func checkMetrics(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	got := make(map[string]metric, len(res.Metrics))
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		got[m.Name] = m
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case m.N < 0:
			t.Errorf("metric %s has sample count %d", w.Name, m.N)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, through the
// real cluster: every answer must match the library, no request may fail,
// and the metrics must be the ones BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.name != workloads[i].name || w.why != sw.Why {
			t.Errorf("workload %d is %s (%q) in BENCHMARK.json and %s (%q) in the program",
				i, sw.Name, sw.Why, workloads[i].name, workloads[i].why)
		}
		t.Run(w.name, func(t *testing.T) {
			c := smokeCorpus(t, w, smokeSeed)
			res, err := runUntraced(w, c, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res)
			checkMetrics(t, res, spec.EndToEnd)

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, err = runTraced(c, spans)
			if err != nil {
				t.Fatal(err) // includes a malformed span tree
			}
			checkRun(t, res)
			checkMetrics(t, res, spec.PerLayer)
			checkSpanFile(t, spans)
		})
	}
}

func checkRun(t *testing.T, res *result) {
	t.Helper()
	if res.Wrong != nil {
		t.Fatalf("wrong answer: %v", res.Wrong)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("attempted %d requests, %d failed", res.Attempted, res.Failed)
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !last.Correct || last.Attempted != res.Attempted || len(last.Metrics) != len(res.Metrics) {
		t.Fatalf("summary line %s disagrees with the run", lines[len(lines)-1])
	}
}

// checkSpanFile re-reads the written spans and checks the tree again:
// children within parents, non-negative self time, one request id per
// tree, and a client, gateway, upstream and server span in every request.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	tree := buildTree(spans)
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	names := make(map[int64]map[string]bool)
	for _, s := range spans {
		if names[s.Req] == nil {
			names[s.Req] = make(map[string]bool)
		}
		names[s.Req][s.Name] = true
	}
	if len(names) == 0 {
		t.Fatal("no traced requests")
	}
	for req, n := range names {
		for _, want := range []string{spanClient, spanGateway, spanUpstream, spanServer} {
			if !n[want] {
				t.Fatalf("request %d has no %s span", req, want)
			}
		}
	}
}

// TestFailedRequestIsIncorrect pins that a run with a failed request is
// not a correct run, even when every answer it got was right.
func TestFailedRequestIsIncorrect(t *testing.T) {
	res := &result{Attempted: 10, Failed: 1}
	res.add("p50_ms", 1, "ms", 9)
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || res.correct() {
		t.Error("a run with a failed request reads as correct")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Name: spanGateway, Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: spanUpstream, Start: 10, End: 50},
		{Req: 1, ID: 3, Parent: 1, Name: spanUpstream, Start: 30, End: 70},
		{Req: 1, ID: 4, Parent: 2, Name: spanServer, Start: 20, End: 40},
	}
	tree := buildTree(spans)
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int64]int64{1: 40, 2: 20, 3: 40, 4: 20} {
		if got := tree.selfTime(tree.byID[id]); got != want {
			t.Errorf("self time of span %d = %d, want %d", id, got, want)
		}
	}
	spans[3].End = 60 // the server span now outlives its upstream parent
	if err := buildTree(spans).check(); err == nil {
		t.Error("a child outside its parent passed the check")
	}
}

const (
	smokeSeed    = 3
	smokeSeconds = 0.5
)

func buildSmall(t *testing.T, w workloadSpec, seed int64) *corpus {
	t.Helper()
	c, err := w.corpus(seed, w.sizes(smokeSeconds, false))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeCorpora holds the corpora TestSmoke ran, so that
// TestWorkloadProperties compares a fresh build against one of them
// rather than building zipf-batch's 8192-job pool a third time. The tests
// do not run in parallel.
var smokeCorpora = map[string]*corpus{}

func smokeCorpus(t *testing.T, w workloadSpec, seed int64) *corpus {
	t.Helper()
	key := fmt.Sprintf("%s/%d", w.name, seed)
	if c, ok := smokeCorpora[key]; ok {
		return c
	}
	c := buildSmall(t, w, seed)
	smokeCorpora[key] = c
	return c
}

func streams(c *corpus) [][]byte {
	var out [][]byte
	for _, l := range [][]request{c.warmup, c.closed, c.single} {
		for _, r := range l {
			out = append(out, r.body)
		}
	}
	return out
}

func sameStreams(a, b *corpus) bool {
	sa, sb := streams(a), streams(b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if !bytes.Equal(sa[i], sb[i]) {
			return false
		}
	}
	return true
}

// decodedKeys returns the canonical key of every job the corpus sends, in
// order, decoded from the request bodies as a replica would, and the most
// stages any of their instances has.
func decodedKeys(t *testing.T, c *corpus) (keys []string, maxStages int) {
	t.Helper()
	for _, l := range [][]request{c.warmup, c.closed, c.single} {
		for _, r := range l {
			jobs, err := decodeJobs(c.path, r.body)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				keys = append(keys, batch.Key(j.Inst, j.Req))
				maxStages = max(maxStages, stages(j.Inst))
			}
		}
	}
	return keys, maxStages
}

// TestWorkloadProperties checks the properties each workload is chosen
// for, and that its inputs follow the seed and only the seed.
func TestWorkloadProperties(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := smokeCorpus(t, w, smokeSeed), buildSmall(t, w, smokeSeed), buildSmall(t, w, smokeSeed+1)
			if !sameStreams(a, b) {
				t.Error("the same seed gave different request streams")
			}
			if sameStreams(a, other) {
				t.Error("different seeds gave the same request stream")
			}
			keys, maxStages := decodedKeys(t, a)
			distinct := make(map[string]bool)
			for _, k := range keys {
				distinct[k] = true
			}
			switch w.name {
			case "hot-solve":
				perReplica := make([]int, replicas)
				ring := gateway.NewRing(replicas, 0)
				for k := range distinct {
					rep, _ := ring.Route(k, nil)
					perReplica[rep]++
				}
				for rep, n := range perReplica {
					if n > cacheCap {
						t.Errorf("replica %d owns %d hot keys, more than its %d cache entries", rep, n, cacheCap)
					}
				}
				if len(distinct) != hotJobs {
					t.Errorf("%d distinct hot jobs, want %d", len(distinct), hotJobs)
				}
				if maxStages > hotMaxStages {
					t.Errorf("a hot job has %d stages, more than %d", maxStages, hotMaxStages)
				}
			case "zipf-batch":
				if len(a.jobs) < 4*replicas*cacheCap {
					t.Errorf("%d distinct zipf jobs, want at least 4x the cluster's %d cache entries", len(a.jobs), replicas*cacheCap)
				}
			case "cold-solve":
				if len(distinct) != len(keys) {
					t.Errorf("%d of %d cold-solve jobs repeat a key", len(keys)-len(distinct), len(keys))
				}
			case "plan-sweep":
				if len(distinct) != len(keys) {
					t.Errorf("%d of %d plan-sweep queries repeat", len(keys)-len(distinct), len(keys))
				}
				checkPlanSweep(t, a)
			}
		})
	}
}

func checkPlanSweep(t *testing.T, c *corpus) {
	t.Helper()
	for _, l := range [][]request{c.warmup, c.closed, c.single} {
		for _, r := range l {
			f, err := jobspec.DecodeFile(bytes.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			if f.Instance == nil {
				t.Fatal("a plan-sweep batch has no file-level instance")
			}
			for i, j := range f.Jobs {
				if j.Instance != nil {
					t.Fatal("a plan-sweep job carries its own instance")
				}
				if m := c.jobs[r.jobs[i]].method; methodClass(m) != classPoly {
					t.Fatalf("a plan-sweep job is answered by %q, not a polynomial method", m)
				}
			}
		}
	}
}
