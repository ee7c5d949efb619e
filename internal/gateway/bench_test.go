package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/servetest"
	"repro/internal/workload"
)

// BenchmarkRingRoute times one routing decision on the default 3-replica
// ring, healthy and with one replica down.
func BenchmarkRingRoute(b *testing.B) {
	r := NewRing(3, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = hexKey(fnv1a(fnvOffset, fmt.Sprint(i)))
	}
	for _, bc := range []struct {
		name    string
		healthy func(int) bool
	}{{"healthy", nil}, {"one-down", func(i int) bool { return i != 1 }}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Route(keys[i%len(keys)], bc.healthy)
			}
		})
	}
}

// benchJobs renders the 8 jobs of a generator draw as clients of the
// service do (compact json.Marshal output): as /v1/solve bodies and as
// one /v1/batch document with a per-job instance each.
func benchJobs(b *testing.B) (solves [][]byte, doc []byte) {
	var f jobspec.File
	for _, sc := range gen.DefaultSpace().Corpus(1, 8) {
		var buf bytes.Buffer
		if err := pipeline.EncodeJSON(&buf, &sc.Inst); err != nil {
			b.Fatal(err)
		}
		job := jobspec.Job{Instance: buf.Bytes(), Request: jobspec.RequestOf(sc.Req)}
		body, err := json.Marshal(job)
		if err != nil {
			b.Fatal(err)
		}
		solves = append(solves, body)
		f.Jobs = append(f.Jobs, job)
	}
	doc, err := json.Marshal(f)
	if err != nil {
		b.Fatal(err)
	}
	return solves, doc
}

// sharedInstanceDoc renders a plan-sweep-shaped /v1/batch document: one
// file-level instance (two fully homogeneous applications of 12 stages,
// 6 processors of 3 modes) and 8 energy queries with distinct period
// bounds.
func sharedInstanceDoc(b *testing.B) []byte {
	inst := workload.MustInstance(rand.New(rand.NewSource(1)), workload.Config{
		Apps: 2, MinStages: 12, MaxStages: 12, Procs: 6, Modes: 3, Class: pipeline.FullyHomogeneous,
		MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	})
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		b.Fatal(err)
	}
	f := jobspec.File{Instance: buf.Bytes()}
	for i := 0; i < 8; i++ {
		f.Jobs = append(f.Jobs, jobspec.Job{Request: jobspec.Request{Objective: "energy", PeriodBound: 20 + float64(i)}})
	}
	doc, err := json.Marshal(f)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// BenchmarkGatewaySolveRoute times the gateway's own work on a /v1/solve
// body: cutting it, keying it and routing it.
func BenchmarkGatewaySolveRoute(b *testing.B) {
	solves, _ := benchJobs(b)
	r := NewRing(3, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, err := solveKey(solves[i%len(solves)], nil)
		if err != nil {
			b.Fatal(err)
		}
		r.Route(key, nil)
	}
}

// BenchmarkGatewayBatchSplit times the gateway's own work on an 8-job
// /v1/batch document — cutting it, keying and routing every job, and
// building the sub-batches — with a per-job instance each and with one
// file-level instance (the plan-sweep shape).
func BenchmarkGatewayBatchSplit(b *testing.B) {
	_, perJob := benchJobs(b)
	r := NewRing(3, 0)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"per-job-instances", perJob}, {"file-instance", sharedInstanceDoc(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				doc, _, err := splitBatch(bc.body, nil)
				if err != nil {
					b.Fatal(err)
				}
				groups := make(map[int][]int)
				for idx, key := range doc.routeKeys() {
					rep, _ := r.Route(key, nil)
					groups[rep] = append(groups[rep], idx)
				}
				for _, group := range groups {
					doc.splice(group)
				}
			}
		})
	}
}

// BenchmarkGatewayMerge times the gateway's own work on the answers to
// an 8-job /v1/batch document with a per-job instance each, spread over
// 3 replicas: gathering the result slots of the 3 sub-answers and
// appending the merged answer.
func BenchmarkGatewayMerge(b *testing.B) {
	groups, answers := subAnswers(b, 3)
	b.ReportAllocs()
	for b.Loop() {
		fo := &fanout{results: make([]json.RawMessage, 8), merged: jobspec.Stats{Methods: make(map[string]int)}}
		for i, group := range groups {
			if err := fo.gather(group, answers[i]); err != nil {
				b.Fatal(err)
			}
		}
		fo.answer()
	}
}

// subAnswers cuts benchJobs' 8-job document into n sub-batches, job i
// in sub-batch i mod n, and returns the groups and a replica's answers
// to them.
func subAnswers(b *testing.B, n int) (groups [][]int, answers [][]byte) {
	_, body := benchJobs(b)
	doc, _, err := splitBatch(body, nil)
	if err != nil {
		b.Fatal(err)
	}
	groups = make([][]int, n)
	for i := range doc.Jobs {
		groups[i%n] = append(groups[i%n], i)
	}
	srv := server.New(server.Config{})
	for _, group := range groups {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(doc.splice(group))))
		if rec.Code != http.StatusOK {
			b.Fatalf("sub-batch: status %d: %s", rec.Code, rec.Body)
		}
		answers = append(answers, rec.Body.Bytes())
	}
	return groups, answers
}

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkGatewaySolveHit measures one /v1/solve front-tier hit at the
// gateway through ServeHTTP, middleware included: the counterpart of the
// replica's BenchmarkServerSolveHit, on the same body.
func BenchmarkGatewaySolveHit(b *testing.B) {
	replica := httptest.NewServer(server.New(server.Config{CacheCap: 64}))
	defer replica.Close()
	g, err := New(Config{Replicas: []string{replica.URL}})
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"instance": ` + servetest.Fig1JSON(b) + `, "request": {"objective": "energy", "periodBound": 2}}`)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		g.ServeHTTP(w, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	serve()
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
	if g.front.Stats().Hits == 0 {
		b.Fatal("no front-tier hit")
	}
}

// stubReplica is an in-process upstream that answers every request with
// one stored replica answer, so a benchmark times the gateway's own work
// without a loopback hop.
type stubReplica struct {
	header http.Header
	body   []byte
}

func (s *stubReplica) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: s.header.Clone(),
		Body: io.NopCloser(bytes.NewReader(s.body)), ContentLength: int64(len(s.body)), Request: r}, nil
}

// BenchmarkGatewaySolveMiss measures one /v1/solve that the gateway's
// front tier has not seen, through ServeHTTP against an in-process
// replica that answers with a replica's kept answer to the same
// instance: the hit benchmark's other half. Every iteration sends a new
// body (its period bound differs), so past FrontCap iterations every
// miss also evicts, as under a working set larger than the tier.
func BenchmarkGatewaySolveMiss(b *testing.B) {
	prefix := []byte(`{"instance": ` + servetest.Fig1JSON(b) + `, "request": {"objective": "energy", "periodBound": 2.`)
	rec := httptest.NewRecorder()
	server.New(server.Config{}).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(append(prefix, "5}}"...))))
	if rec.Code != http.StatusOK {
		b.Fatalf("replica answer: status %d: %s", rec.Code, rec.Body)
	}
	stub := &stubReplica{header: rec.Header(), body: rec.Body.Bytes()}
	g, err := New(Config{Replicas: []string{"http://replica.invalid"}, Client: &http.Client{Transport: stub}})
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: make(http.Header)}
	body := slices.Clone(prefix)
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		i++
		body = append(strconv.AppendInt(body[:len(prefix)], int64(i), 10), "}}"...)
		g.ServeHTTP(w, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	if st := g.front.Stats(); st.Hits != 0 || st.Misses == 0 {
		b.Fatalf("front tier %+v, want misses only", st)
	}
}
