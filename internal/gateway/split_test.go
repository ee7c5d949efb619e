package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/server"
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
// overriding it with their own, fields reordered and padded.
func corpusDocument(t testing.TB, rng *rand.Rand, corpus []gen.Scenario) string {
	d := docWriter{rng: rng}
	members := map[string]string{}
	shared := rng.Intn(3) > 0
	if shared {
		members["instance"] = d.instance(t, &corpus[rng.Intn(len(corpus))].Inst)
	}
	n := 1 + rng.Intn(12)
	jobs := make([]string, n)
	for i := range jobs {
		sc := &corpus[rng.Intn(len(corpus))]
		job := map[string]string{"request": d.request(t, sc)}
		if !shared || rng.Intn(3) == 0 {
			job["instance"] = d.instance(t, &sc.Inst)
		}
		jobs[i] = d.object(job)
	}
	members["jobs"] = "[" + d.pad() + strings.Join(jobs, ","+d.pad()) + d.pad() + "]"
	return d.pad() + d.object(members) + d.pad()
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
// (hash/fnv's New64a) over the json.Compact bytes of the instance, a
// zero byte, and the json.Compact bytes of the request.
func TestRouteKeyIsCompactHash(t *testing.T) {
	corpus := gen.DefaultSpace().Corpus(3, 32)
	rng := rand.New(rand.NewSource(9))
	d := docWriter{rng: rng}
	for i := range corpus {
		inst, req := d.instance(t, &corpus[i].Inst), d.request(t, &corpus[i])
		inst = `{"apps": [{"name": "a \" \\ \t b", "in": 1, "stages": [{"work": 1, "out": 0}]}], "x": ` + inst + "}"
		var ci, cr bytes.Buffer
		if err := json.Compact(&ci, []byte(inst)); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&cr, []byte(req)); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(ci.Bytes())
		h.Write([]byte{0})
		h.Write(cr.Bytes())
		if got, want := jobKey(instanceHash([]byte(inst)), []byte(req)), fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("route key %s, want %s for\n%s\n%s", got, want, inst, req)
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

// TestSolveAndBatchShareRouteKeys sends the same job as a /v1/solve body
// and inside /v1/batch documents — as the file-level instance and as the
// job's own, differently padded — and checks that every request routes
// it by the same key.
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

// FuzzGatewaySplit checks the gateway's cuts against the checks the
// gateway has always run, on any input. As a /v1/batch document, the cut
// takes exactly what jobspec.DecodeFile accepts, and each job's sub-batch
// decodes to the job's slot; any other input gets DecodeFile's error. As
// a /v1/solve body, every input checkSolve accepts gets a route key, and
// one refused gets checkSolve's error.
func FuzzGatewaySplit(f *testing.F) {
	corpus := gen.DefaultSpace().Corpus(4, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add([]byte(corpusDocument(f, rng, corpus)))
	}
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
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := solveKey(data); err != nil {
			if checkErr := checkSolve(data); checkErr == nil || err.Error() != checkErr.Error() {
				t.Fatalf("solve cut answers %v, checkSolve %v", err, checkErr)
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
