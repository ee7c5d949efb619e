package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/servetest"
)

// docWriter renders generator scenarios as wire documents in the shapes
// a client may send: fields in any order, any whitespace.
type docWriter struct {
	rng *rand.Rand
}

// pad returns a random run of JSON whitespace, often empty.
func (d docWriter) pad() string {
	return []string{"", "", " ", "\n  ", "\t", " \r\n "}[d.rng.Intn(6)]
}

// object writes the members in a random order with random padding.
func (d docWriter) object(members map[string]string) string {
	keys := make([]string, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Strings(keys) // map order is not seeded; rng's shuffle is
	d.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var b strings.Builder
	b.WriteString("{" + d.pad())
	for i, k := range keys {
		if i > 0 {
			b.WriteString("," + d.pad())
		}
		fmt.Fprintf(&b, "%q%s:%s%s%s", k, d.pad(), d.pad(), members[k], d.pad())
	}
	b.WriteString("}")
	return b.String()
}

// instance renders an instance, indented or compact.
func (d docWriter) instance(t testing.TB, inst *pipeline.Instance) string {
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	if d.rng.Intn(2) == 0 {
		var c bytes.Buffer
		json.Compact(&c, buf.Bytes())
		return c.String()
	}
	return strings.TrimSpace(buf.String())
}

// request renders a request's set fields as an object in random order.
func (d docWriter) request(t testing.TB, sc *gen.Scenario) string {
	raw, err := json.Marshal(jobspec.RequestOf(sc.Req))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	members := make(map[string]string, len(fields))
	for k, v := range fields {
		members[k] = string(v)
	}
	return d.object(members)
}

// corpusDocument builds a /v1/batch document of jobs drawn from the
// generator corpus: with or without a file-level instance, some jobs
// overriding it with their own, fields reordered and padded. A job whose
// request bounds another application count than the file-level instance
// has carries its own instance, so every document is valid.
func corpusDocument(t testing.TB, rng *rand.Rand, corpus []gen.Scenario) string {
	d := docWriter{rng: rng}
	members := map[string]string{}
	var shared *pipeline.Instance
	if rng.Intn(3) > 0 {
		shared = &corpus[rng.Intn(len(corpus))].Inst
		members["instance"] = d.instance(t, shared)
	}
	n := 1 + rng.Intn(12)
	jobs := make([]string, n)
	for i := range jobs {
		sc := &corpus[rng.Intn(len(corpus))]
		job := map[string]string{"request": d.request(t, sc)}
		if shared == nil || rng.Intn(3) == 0 || !boundsFit(&sc.Req, shared) {
			job["instance"] = d.instance(t, &sc.Inst)
		}
		jobs[i] = d.object(job)
	}
	members["jobs"] = "[" + d.pad() + strings.Join(jobs, ","+d.pad()) + d.pad() + "]"
	return d.pad() + d.object(members) + d.pad()
}

// boundsFit reports whether req's bound arrays hold one bound per
// application of inst.
func boundsFit(req *core.Request, inst *pipeline.Instance) bool {
	fits := func(b []float64) bool { return b == nil || len(b) == len(inst.Apps) }
	return fits(req.PeriodBounds) && fits(req.LatencyBounds)
}

// decodedKeys decodes a batch document as a replica does and returns
// every job's canonical key.
func decodedKeys(t testing.TB, doc []byte) []string {
	t.Helper()
	f, err := jobspec.DecodeFile(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("DecodeFile: %v\n%s", err, doc)
	}
	jobs, err := f.BatchJobs()
	if err != nil {
		t.Fatalf("BatchJobs: %v\n%s", err, doc)
	}
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i] = batch.Key(jobs[i].Inst, jobs[i].Req)
	}
	return keys
}

// TestSpliceFidelity is the splice property over generator documents:
// every job of every spliced sub-batch decodes to the canonical key of
// its slot in the original document, whatever the grouping.
func TestSpliceFidelity(t *testing.T) {
	corpus := gen.DefaultSpace().Corpus(11, 64)
	rng := rand.New(rand.NewSource(5))
	ring := NewRing(3, 0)
	for n := 0; n < 150; n++ {
		body := corpusDocument(t, rng, corpus)
		want := decodedKeys(t, []byte(body))
		doc, _, err := splitBatch([]byte(body), nil)
		if err != nil {
			t.Fatalf("the cut refuses a valid document: %v\n%s", err, body)
		}
		keys := doc.routeKeys()
		groups := make(map[int][]int)
		for i, k := range keys {
			rep, _ := ring.Route(k, nil)
			if rng.Intn(4) == 0 {
				rep = rng.Intn(3) // any grouping must splice faithfully
			}
			groups[rep] = append(groups[rep], i)
		}
		for _, group := range groups {
			sub := doc.splice(group)
			got := decodedKeys(t, sub)
			for k, idx := range group {
				if got[k] != want[idx] {
					t.Fatalf("document %d: job %d decodes differently in its sub-batch\ndocument %s\nsub-batch %s", n, idx, body, sub)
				}
			}
		}
	}
}

// TestRouteKeyIsCompactHash pins the route key's definition: FNV-1a
// (hash/fnv's New64a) over the json.Compact bytes of the instance and a
// zero byte. The request takes no part, so a /v1/solve body keys alike
// whatever its request and however its instance is indented.
func TestRouteKeyIsCompactHash(t *testing.T) {
	corpus := gen.DefaultSpace().Corpus(3, 32)
	rng := rand.New(rand.NewSource(9))
	d := docWriter{rng: rng}
	for i := range corpus {
		inst := d.instance(t, &corpus[i].Inst)
		inst = `{"apps": [{"name": "a \" \\ \t b", "in": 1, "stages": [{"work": 1, "out": 0}]}], "x": ` + inst + "}"
		var ci bytes.Buffer
		if err := json.Compact(&ci, []byte(inst)); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(ci.Bytes())
		h.Write([]byte{0})
		want := fmt.Sprintf("%016x", h.Sum64())
		if got := instanceKey([]byte(inst)); got != want {
			t.Fatalf("route key %s, want %s for\n%s", got, want, inst)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, ci.Bytes(), "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, body := range []string{
			`{"instance": ` + inst + `, "request": ` + d.request(t, &corpus[i]) + `}`,
			`{"request": ` + d.request(t, &corpus[(i+1)%len(corpus)]) + `, "instance": ` + indented.String() + `}`,
		} {
			if got, _, err := solveKey([]byte(body), nil); err != nil || got != want {
				t.Fatalf("solve body keys %s (%v), want %s:\n%s", got, err, want, body)
			}
		}
	}
}

// recordingRouter remembers every key it routes.
type recordingRouter struct {
	Router
	mu   sync.Mutex
	keys []string
}

func (r *recordingRouter) Route(key string, healthy func(int) bool) (int, bool) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
	return r.Router.Route(key, healthy)
}

func (r *recordingRouter) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := r.keys
	r.keys = nil
	return keys
}

// TestSolveAndBatchShareRouteKeys sends the same job as a /v1/solve body,
// inside /v1/batch documents — as the file-level instance and as the
// job's own, differently padded — and as a /v1/resolve body, and checks
// that every request routes it by the same key.
func TestSolveAndBatchShareRouteKeys(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{})
	rr := &recordingRouter{Router: NewRing(3, 0)}
	g := newGateway(t, urls, Config{Router: rr})
	corpus := gen.DefaultSpace().Corpus(21, 6)
	d := docWriter{rng: rand.New(rand.NewSource(2))}
	for i := range corpus {
		inst, req := d.instance(t, &corpus[i].Inst), d.request(t, &corpus[i])
		bodies := map[string]string{
			"/v1/solve":        `{"request": ` + req + `, "instance": ` + inst + `}`,
			"/v1/batch shared": `{"instance":` + inst + `, "jobs": [{"request": ` + req + `}]}`,
			"/v1/batch own":    "{\"jobs\": [ {\n\"instance\": " + inst + ",\t\"request\": " + req + "} ]}",
			"/v1/resolve":      `{"event": {"kind": "proc-fail", "proc": 0}, "instance": ` + inst + `, "request": ` + req + `}`,
		}
		keys := map[string]string{}
		for name, body := range bodies {
			path, _, _ := strings.Cut(name, " ")
			if rec := postGateway(g, path, body); rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
			}
			got := rr.take()
			if len(got) != 1 {
				t.Fatalf("%s routed %d keys, want 1", name, len(got))
			}
			keys[name] = got[0]
		}
		for name, k := range keys {
			if k != keys["/v1/solve"] {
				t.Errorf("scenario %d: %s routes by %s, /v1/solve by %s", i, name, k, keys["/v1/solve"])
			}
		}
	}
}

// FuzzGatewaySplit checks the gateway's cuts against the decoders the
// replicas answer with, on any input. As a /v1/batch document, the cut
// takes exactly what jobspec.DecodeFile accepts, and each job's sub-batch
// decodes to the job's slot; any other input gets DecodeFile's error. As
// a /v1/solve body, the cut refuses only inputs jobspec.DecodeSolve
// refuses, and answers them with DecodeSolve's error and status.
func FuzzGatewaySplit(f *testing.F) {
	corpus := gen.DefaultSpace().Corpus(4, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add([]byte(corpusDocument(f, rng, corpus)))
	}
	fig1 := servetest.Fig1JSON(f)
	for _, doc := range []string{
		`{"jobs": [null, {"request": null}, {}]}`,
		`{"jobs": [{"request": {"rule": "a"}, "request": {"seed": 1}}]}`,
		`{"jobs": [{"instance": 1, "request": {}}], "jobs": [{"request": {}}]}`,
		`{"jobs": [{"instance": {"a": 1}, "request": {"seed": 1}}, {"request": {"seed": 2}}], "jobs": [{ }], "jobs": [null, {"Request": {"rule": "x"}}]}`,
		`{"jobs": [{"request": {"seed": 1}}, {}], "jobs": null, "jobs": [{"request": {"seed": 2}}]}`,
		`{"joBs": [{"request": {"": 0}}], "joBs": null, "joBs": [{}]}`,
		`{"JOBS": [{"Request": {"periodBounds": []}}], "Instance": null} trailing`,
		`{"jobs": [{"request": {"energyBudget": -0}}]}`,
		`{"jobs": [7]}`,
		`{"jobs": [{"request": {"objectve": "period"}}]}`,
		`{"jobs": [{"request": {"seed": "x"}}]}`,
		`{"jobs": [{"request": 5}]}`,
		`{"jobz": [{"request": {}}]}`,
		`{"jobs": [{"requesx": {}, "instancf": {}}]}`,
		`{"\u006aobs": [{"request": {"periodBounds": []}}], "instance": {}, "instance": null}`,
		`{"Jobs": [{"REQUEST": {"Rule": "interval"}}], "INSTANCE": {"apps": []}}`,
		`{"jobs": [{"request": {}}],}`,
		`{"jobs": [{"request": {}}]} {"jobs": []}`,
		`{"instance": "x\"}", "jobs": [{"instance": [1, {"a": "]"}], "request": {"seed": 1}}]}`,
		`{"jobs": []}`,
		`{"instance": {"apps": []}, "request": {"seed": 1}, "x": 1}`,
		`not json`,
		// The /v1/solve documents of the wire oracle on which the gateway
		// once answered from its own decode.
		(`{"instance": ` + fig1 + `, "request": {}}`)[:200],
		``,
		`{"instance": ` + fig1 + `, "request": {"objectve": 1, "seed": "x"}}`,
		`{"priority": 1, "request": 5, "instance": ` + fig1 + `}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, status, err := solveKey(data, nil); err != nil {
			_, decodeStatus, decodeErr := jobspec.DecodeSolve(bytes.NewReader(data), nil)
			if decodeErr == nil || err.Error() != decodeErr.Error() || status != decodeStatus {
				t.Fatalf("solve cut answers %d %v, DecodeSolve %d %v", status, err, decodeStatus, decodeErr)
			}
		}

		file, decodeErr := jobspec.DecodeFile(bytes.NewReader(data))
		doc, _, err := splitBatch(data, nil)
		switch {
		case err != nil:
			if decodeErr == nil || err.Error() != decodeErr.Error() {
				t.Fatalf("cut answers %v, DecodeFile %v", err, decodeErr)
			}
		case decodeErr != nil:
			t.Fatalf("cut takes what DecodeFile rejects (%v)", decodeErr)
		default:
			if len(doc.Jobs) != len(file.Jobs) || !bytes.Equal(doc.Instance, file.Instance) {
				t.Fatalf("cut reads %d jobs and instance %q, DecodeFile %d and %q", len(doc.Jobs), doc.Instance, len(file.Jobs), file.Instance)
			}
			for i := range doc.Jobs {
				sub, err := jobspec.DecodeFile(bytes.NewReader(doc.splice([]int{i})))
				if err != nil {
					t.Fatalf("job %d: spliced sub-batch rejected: %v", i, err)
				}
				if !reflect.DeepEqual(sub.Jobs[0], file.Jobs[i]) || !bytes.Equal(sub.Instance, file.Instance) {
					t.Fatalf("job %d decodes to %+v in its sub-batch, %+v in the document", i, sub.Jobs[0], file.Jobs[i])
				}
			}
		}
	})
}

// TestGatherMatchesWireRoundTrip pins the merged answer of a batch
// spread over 1, 2 and 3 replicas, with slots the replicas filled with
// errors and slots the gateway filled itself: the slots gathered from
// the replicas' answers (cutAnswer) and appended with the merged stats
// are the bytes that decoding each answer into raw slots and stats and
// encoding the merged document with jobspec.MarshalJSON give.
func TestGatherMatchesWireRoundTrip(t *testing.T) {
	var reqs []string
	for i := 0; i < 9; i++ {
		reqs = append(reqs, fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 0.5+float64(i)/4))
	}
	reqs = append(reqs, `{"request": {"objective": "latency"}}`, `{"request": {"rule": "one-to-one", "objective": "period"}}`)
	f, err := jobspec.DecodeFile(strings.NewReader(`{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [` + strings.Join(reqs, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.BatchJobs()
	if err != nil {
		t.Fatal(err)
	}
	g := &Gateway{}
	for replicas := 1; replicas <= 3; replicas++ {
		// Every (replicas+1)-th job is one the gateway answers itself.
		groups := make([][]int, replicas+1)
		for i := range jobs {
			groups[i%(replicas+1)] = append(groups[i%(replicas+1)], i)
		}
		fo := &fanout{results: make([]json.RawMessage, len(jobs)), merged: jobspec.Stats{Methods: make(map[string]int)}}
		want := rawOutput{Results: make([]json.RawMessage, len(jobs)), Stats: jobspec.Stats{Methods: make(map[string]int)}}
		for rep, group := range groups[:replicas] {
			sub := make([]batch.Job, len(group))
			for i, idx := range group {
				sub[i] = jobs[idx]
			}
			results, stats := batch.Solve(sub, batch.Options{})
			stats.Wall = time.Duration(rep+1) * 1234567 * time.Nanosecond
			answer := jobspec.AppendOutput(nil, results, stats)
			if err := fo.gather(group, answer); err != nil {
				t.Fatalf("%d replicas: gathering %s: %v", replicas, answer, err)
			}
			var out rawOutput
			if err := json.Unmarshal(answer, &out); err != nil {
				t.Fatal(err)
			}
			for i, idx := range group {
				want.Results[idx] = out.Results[i]
			}
			want.Stats.Merge(out.Stats)
		}
		shed := groups[replicas]
		failure := errors.New("no healthy replica for <job> & \u2028 \xff")
		g.failSlots(fo, shed, jobspec.CodeShed, failure)
		for _, idx := range shed {
			want.Results[idx] = errorSlot(jobspec.CodeShed, failure)
		}
		want.Stats.Jobs += len(shed)
		want.Stats.Errors += len(shed)

		wantBody, err := jobspec.MarshalJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := fo.answer(); !bytes.Equal(got, wantBody) {
			t.Errorf("%d replicas: gathered answer\n%s\nwant\n%s", replicas, got, wantBody)
		}
		if want.Stats.Errors <= len(shed) {
			t.Errorf("%d replicas: no replica answered an error slot: %+v", replicas, want.Stats)
		}
	}
}

// TestCutAnswerRefusesUnreadable pins that an answer the cut cannot read
// is refused rather than spliced: not a replica's layout, a slot that is
// no object or never ends, stats that do not decode.
func TestCutAnswerRefusesUnreadable(t *testing.T) {
	for _, body := range []string{
		``, `null`, `{"results":[{}],"stats":{}}`, `{"results":[{}],"stats":{"jobs":1}`,
		`{"stats":{"jobs":1},"results":[{}]}` + "\n", `{"results": [{}], "stats": {}}` + "\n",
		`{"results":[{},]],"stats":{}}` + "\n", `{"results":[{}{}],"stats":{}}` + "\n",
		`{"results":[1],"stats":{}}` + "\n", `{"results":[{"error":"x}],"stats":{}}` + "\n",
		`{"results":[{}],"stats":{"jobs":"one"}}` + "\n", `{"results":[{}],"stats":}` + "\n",
	} {
		if slots, _, err := cutAnswer([]byte(body)); err == nil {
			t.Errorf("cutAnswer(%q) = %q, want an error", body, slots)
		}
	}
	slots, stats, err := cutAnswer([]byte(`{"results":[{"a":["]}"]},{"error":"\"]},{"}],"stats":{"jobs":2}}` + "\n"))
	if err != nil || len(slots) != 2 || string(slots[1]) != `{"error":"\"]},{"}` || stats.Jobs != 2 {
		t.Errorf("cutAnswer of brackets in strings: %q %+v %v", slots, stats, err)
	}
}
