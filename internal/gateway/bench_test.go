package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/server"
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
