package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
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
// /v1/batch document with per-job instances: cutting it, keying and
// routing every job, and building the sub-batches.
func BenchmarkGatewayBatchSplit(b *testing.B) {
	_, body := benchJobs(b)
	r := NewRing(3, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, _, err := splitBatch(body, nil)
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
}
