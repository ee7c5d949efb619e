package jobspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// seedDocs builds job-file documents around the same instances the
// examples/ programs construct (the Section 2 motivating example, the
// quickstart homogeneous platform, the streaming-center preset), plus a
// few structurally interesting shapes, to seed the fuzz corpus.
func seedDocs(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(inst pipeline.Instance) []byte {
		var buf bytes.Buffer
		if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	fig1 := encode(pipeline.MotivatingExample())
	quickstart := encode(pipeline.Instance{
		Apps: []pipeline.Application{{
			Name: "filter-chain", In: 4, Weight: 1,
			Stages: []pipeline.Stage{{Work: 2, Out: 4}, {Work: 6, Out: 4}, {Work: 6, Out: 4}, {Work: 8, Out: 2}, {Work: 3, Out: 1}},
		}},
		Platform: pipeline.NewHomogeneousPlatform(4, []float64{1, 2, 4}, 2, 1),
		Energy:   pipeline.EnergyModel{Static: 0.5, Alpha: 2},
	})
	streaming := encode(workload.StreamingCenter(6))

	docs := [][]byte{
		[]byte(fmt.Sprintf(`{"instance": %s, "jobs": [{"request": {"objective": "period"}}]}`, fig1)),
		[]byte(fmt.Sprintf(`{"instance": %s, "jobs": [
			{"request": {"objective": "energy", "periodBound": 2}},
			{"request": {"rule": "one-to-one", "model": "no-overlap", "objective": "latency"}}]}`, fig1)),
		[]byte(fmt.Sprintf(`{"jobs": [{"instance": %s, "request": {"objective": "period", "latencyBounds": [9, 9]}}]}`, quickstart)),
		[]byte(fmt.Sprintf(`{"instance": %s, "jobs": [{"request": {"objective": "period", "seed": 7, "exactLimit": 100}}]}`, streaming)),
		// Structure-only shapes: no default instance, empty request, deep bounds.
		[]byte(`{"jobs": [{"request": {}}]}`),
		[]byte(`{"jobs": [{"request": {"periodBounds": [1.5, 2.25, 1e-3], "energyBudget": 0.5}}]}`),
	}
	return docs
}

// FuzzFileRoundTrip asserts the job-file schema is stable under
// decode -> encode -> decode: any document DecodeFile accepts must
// re-encode to a form it accepts again, and that second decode must encode
// identically (a canonical fixed point after one round). Translating the
// document into engine jobs must never panic, whatever the bytes were.
func FuzzFileRoundTrip(f *testing.F) {
	for _, doc := range seedDocs(f) {
		f.Add(doc)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"jobs": []}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeFile(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		enc1, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document failed to encode: %v", err)
		}
		doc2, err := DecodeFile(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decode of encoded document failed: %v\nencoded: %s", err, enc1)
		}
		enc2, err := json.Marshal(doc2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
		// Job translation must fail gracefully, never panic: the instance
		// payloads are arbitrary fuzzer-controlled JSON.
		if jobs, err := doc.BatchJobs(); err == nil {
			for i, j := range jobs {
				if j.Inst == nil {
					t.Fatalf("job %d translated with nil instance", i)
				}
			}
		}
	})
}

// FuzzFloatJSON asserts the non-finite Float handling: NaN and ±Inf must
// encode as JSON null (never an encoding error), finite values must
// round-trip exactly, and a whole Result document carrying the value must
// marshal to valid JSON.
func FuzzFloatJSON(f *testing.F) {
	for _, v := range []float64{0, -0.0, 1, -1.5, 2.75, math.Pi, 1e308, -1e308,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		b, err := Float(v).MarshalJSON()
		if err != nil {
			t.Fatalf("Float(%g).MarshalJSON: %v", v, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if string(b) != "null" {
				t.Fatalf("Float(%g) encoded %q, want null", v, b)
			}
		} else {
			var got float64
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatalf("finite Float(%g) encoded unparseable %q: %v", v, b, err)
			}
			if got != v {
				t.Fatalf("finite Float round trip %g -> %q -> %g", v, b, got)
			}
		}
		out, err := json.Marshal(Result{Value: Float(v), Period: Float(v), Latency: Float(v), Energy: Float(v)})
		if err != nil {
			t.Fatalf("Result with value %g failed to marshal: %v", v, err)
		}
		if !json.Valid(out) {
			t.Fatalf("Result with value %g marshalled invalid JSON: %s", v, out)
		}
	})
}

// FuzzResultBytes holds the appending encoders to their reference
// forms: AppendResult(nil, jr) must equal json.Marshal(EncodeResult(jr))
// and AppendOutput must equal MarshalJSON(EncodeOutput(...)), byte for
// byte, over fuzzed values, metrics and lower bounds, flags, method
// names, error texts and small mappings. shape draws the mapping: no
// bytes is a nil Apps, the first byte counts applications (mod 4), and
// each application takes a count byte (mod 4, 3 meaning nil Intervals)
// and one byte per interval field.
func FuzzResultBytes(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1e-7, 9.99e20, 1e21, 2.75, -46}
	texts := []string{"", "core: no mapping satisfies the bounds", "a <b> & c", "line \u2028 para \u2029 end",
		"bad \xff\xfe utf-8", "quote \" slash \\ tab \t nul \x00 del \x7f"}
	methods := []string{"", "exact", "exact,heuristic", "dp-interval,exact,heuristic", "a<b>,&"}
	shapes := [][]byte{nil, {0}, {1, 3}, {2, 1, 0, 1, 2, 0, 2, 2, 3, 1, 0, 0, 1}, {1, 0}}
	for i, v := range floats {
		f.Add(v, floats[(i+3)%len(floats)], v, -v, floats[(i+5)%len(floats)], i%2 == 0, i%3 == 0,
			methods[i%len(methods)], texts[i%len(texts)], i%5 == 4, int64(i)*1234567, shapes[i%len(shapes)])
	}
	for i, text := range texts {
		f.Add(1.0, 1.0, 2.0, 3.0, 0.5, false, false, methods[i%len(methods)], text, true, int64(i), shapes[i%len(shapes)])
	}
	f.Fuzz(func(t *testing.T, value, period, latency, energy, lower float64,
		optimal, degraded bool, method, text string, failed bool, wallNs int64, shape []byte) {
		jr := batch.JobResult{Result: core.Result{
			Mapping:    fuzzMapping(shape),
			Value:      value,
			Metrics:    mapping.Metrics{Period: period, Latency: latency, Energy: energy},
			Method:     core.Method(method),
			Optimal:    optimal,
			Degraded:   degraded,
			LowerBound: lower,
		}}
		if failed {
			jr = batch.JobResult{Err: errors.New(text)}
		}
		slot, err := EncodeResult(jr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(slot)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendResult(nil, jr); !bytes.Equal(got, want) {
			t.Fatalf("AppendResult:\ngot  %s\nwant %s", got, want)
		}

		stats := batch.Stats{Jobs: 2, CacheHits: int(wallNs & 3), Errors: 1, PlanCompiles: int(wallNs & 1),
			PlanReuses: int(wallNs >> 62 & 1), Wall: time.Duration(wallNs)}
		if degraded {
			stats.Degraded = 1
		}
		if method != "" {
			stats.Methods = make(map[core.Method]int)
			for i, m := range strings.SplitN(method, ",", 3) {
				stats.Methods[core.Method(m)] += i + 1
			}
		}
		results := []batch.JobResult{jr, {Err: fmt.Errorf("job: %s: %w", text, core.ErrInfeasible)}}
		out, err := EncodeOutput(results, stats)
		if err != nil {
			t.Fatal(err)
		}
		want, err = MarshalJSON(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendOutput(nil, results, stats); !bytes.Equal(got, want) {
			t.Fatalf("AppendOutput:\ngot  %s\nwant %s", got, want)
		}
	})
}

// fuzzMapping draws a small mapping from shape (see FuzzResultBytes).
func fuzzMapping(shape []byte) mapping.Mapping {
	if len(shape) == 0 {
		return mapping.Mapping{}
	}
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(int8(b))
	}
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, next()&3)}
	for a := range m.Apps {
		n := next() & 3
		if n == 3 {
			continue // nil Intervals
		}
		m.Apps[a].Intervals = make([]mapping.PlacedInterval, n)
		for j := range m.Apps[a].Intervals {
			m.Apps[a].Intervals[j] = mapping.PlacedInterval{From: next(), To: next(), Proc: next(), Mode: next()}
		}
	}
	return m
}
