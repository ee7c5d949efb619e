package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestLimitBody pins the one body-cap rule: 0 means DefaultMaxBody, a
// positive limit caps at that many bytes, a negative one disables the
// cap; an overrun is a 413.
func TestLimitBody(t *testing.T) {
	for _, c := range []struct {
		limit    int64
		size     int64
		wantFail bool
	}{
		{0, DefaultMaxBody, false},
		{0, DefaultMaxBody + 1, true},
		{10, 10, false},
		{10, 11, true},
		{-1, DefaultMaxBody + 1, false},
	} {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(strings.Repeat(" ", int(c.size))))
		LimitBody(rec, r, c.limit)
		_, err := io.Copy(io.Discard, r.Body)
		if (err != nil) != c.wantFail {
			t.Errorf("limit %d, body %d: read error %v, want failure %v", c.limit, c.size, err, c.wantFail)
		}
		if err != nil && DecodeStatus(err) != http.StatusRequestEntityTooLarge {
			t.Errorf("limit %d: overrun maps to %d, want 413", c.limit, DecodeStatus(err))
		}
	}
	if DecodeStatus(errors.New("unexpected EOF")) != http.StatusBadRequest {
		t.Error("a plain decode failure is not a 400")
	}
}

// TestMarshalJSONMatchesWriteJSON pins that MarshalJSON returns the very
// body WriteJSON writes, newline and HTML escaping included, so a stored
// answer replays byte for byte.
func TestMarshalJSONMatchesWriteJSON(t *testing.T) {
	doc := fig1File(t, `[{"request": {"objective": "energy", "periodBound": 2}}, {"request": {"objective": "energy", "periodBound": 0.01}}]`)
	bj, err := doc.BatchJobs()
	if err != nil {
		t.Fatal(err)
	}
	results, stats := batch.Solve(bj, batch.Options{})
	ok, err := EncodeResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := EncodeOutput(results, stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []any{ok, out, errorDoc{Error: "<a & b>", Code: CodeInvalid}, map[string]Float{"inf": Float(math.Inf(1))}} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, doc)
		body, err := MarshalJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != rec.Body.String() {
			t.Errorf("MarshalJSON = %q, WriteJSON wrote %q", body, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		WriteRaw(rec, http.StatusOK, body)
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("WriteRaw Content-Type = %q", got)
		}
	}
}

// TestReplay checks a replayed body ends with the read's own error, and
// with io.EOF after a clean read.
func TestReplay(t *testing.T) {
	got, err := io.ReadAll(Replay([]byte("abc"), nil))
	if string(got) != "abc" || err != nil {
		t.Errorf("clean replay = %q, %v", got, err)
	}
	cut := errors.New("cut")
	got, err = io.ReadAll(Replay([]byte("abc"), cut))
	if string(got) != "abc" || err != cut {
		t.Errorf("failed replay = %q, %v, want abc, cut", got, err)
	}
}

// TestWriteErrorAndShed pins the error document: a 4xx the classifier
// calls internal reports "invalid", a 5xx keeps "internal", and a shed
// carries code "shed" with Retry-After in whole seconds, rounded up,
// never below 1.
func TestWriteErrorAndShed(t *testing.T) {
	var doc errorDoc
	for _, c := range []struct {
		status int
		want   string
	}{{http.StatusBadRequest, CodeInvalid}, {http.StatusInternalServerError, CodeInternal}} {
		rec := httptest.NewRecorder()
		WriteError(rec, c.status, errors.New("boom"))
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Code != c.want || doc.Error != "boom" {
			t.Errorf("status %d: %s (err %v), want code %q", c.status, rec.Body.String(), err, c.want)
		}
	}
	for wait, want := range map[time.Duration]string{0: "1", time.Millisecond: "1", time.Second: "1", 1500 * time.Millisecond: "2", 3 * time.Second: "3"} {
		rec := httptest.NewRecorder()
		WriteShed(rec, http.StatusTooManyRequests, wait, errors.New("busy"))
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Errorf("wait %v: Retry-After %q, want %q", wait, got, want)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Code != CodeShed || rec.Code != http.StatusTooManyRequests {
			t.Errorf("wait %v: %d %s, want 429 with code shed", wait, rec.Code, rec.Body.String())
		}
	}
}

// TestErrorClasses pins each engine error class to its wire code and
// HTTP status, wrapped as the solver wraps it.
func TestErrorClasses(t *testing.T) {
	for _, c := range []struct {
		err    error
		code   string
		status int
	}{
		{core.ErrInfeasible, CodeInfeasible, http.StatusUnprocessableEntity},
		{core.ErrUnresolved, CodeUnresolved, http.StatusUnprocessableEntity},
		{core.ErrUnsupported, CodeInvalid, http.StatusUnprocessableEntity},
		{exact.ErrSearchSpace, CodeInvalid, http.StatusUnprocessableEntity},
		{context.DeadlineExceeded, CodeTimeout, http.StatusGatewayTimeout},
		{context.Canceled, CodeTimeout, http.StatusServiceUnavailable},
		{errors.New("boom"), CodeInternal, http.StatusInternalServerError},
	} {
		err := fmt.Errorf("solve: %w", c.err)
		if code, status := ErrorCode(err), ErrorStatus(err); code != c.code || status != c.status {
			t.Errorf("%v: code %q status %d, want %q %d", err, code, status, c.code, c.status)
		}
	}
	if code := ErrorCode(nil); code != "" {
		t.Errorf("nil error has code %q", code)
	}
}

// TestRouteKey names requests by registered route and folds everything
// else — unknown paths and method mismatches — into "unmatched".
func TestRouteKey(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("GET /healthz", Healthz)
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/solve", "/v1/solve"},
		{"GET", "/healthz", "/healthz"},
		{"GET", "/v1/solve", "unmatched"},
		{"GET", "/.env", "unmatched"},
	} {
		if got := RouteKey(mux, httptest.NewRequest(c.method, c.path, nil)); got != c.want {
			t.Errorf("%s %s: route %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// TestCountersConcurrent adds to shared counters from many goroutines,
// as concurrent requests do; run it under the race detector.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.Add("all", 1)
				c.Add(fmt.Sprint("g", g%2), 1)
			}
			c.Snapshot()
		}()
	}
	wg.Wait()
	if got := c.Snapshot(); got["all"] != 8000 || got["g0"] != 4000 || got["g1"] != 4000 || len(got) != 3 {
		t.Errorf("counters = %v, want all=8000 g0=4000 g1=4000", got)
	}
}

// discardWriter is a ResponseWriter that only counts the bytes written.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkEncodeOutput measures writing one 8-job /v1/batch response
// as a replica does: appending the engine results' bytes (AppendOutput)
// and writing them with WriteRaw.
func BenchmarkEncodeOutput(b *testing.B) {
	jobs := make([]string, 8)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 2+float64(i)/8)
	}
	doc := fig1File(b, "["+strings.Join(jobs, ",")+"]")
	bj, err := doc.BatchJobs()
	if err != nil {
		b.Fatal(err)
	}
	results, stats := batch.Solve(bj, batch.Options{})
	w := &discardWriter{h: make(http.Header)}
	write := func() { WriteRaw(w, http.StatusOK, AppendOutput(nil, results, stats)) }
	write()
	size := w.n
	b.ReportAllocs()
	for b.Loop() {
		write()
	}
	b.ReportMetric(float64(size), "bytes/response")
}

// benchDocuments are BenchmarkBatchJobs' 8-job batch documents: zipf-batch
// has a generated instance per job (up to 10 stages and 10 processors, as
// in the benchmark's zipf-batch workload), plan-sweep one large
// file-level instance (2 applications of 12 stages on 6 processors with
// 3 modes, fully homogeneous) shared by 8 bounded queries.
func benchDocuments(b *testing.B) map[string]File {
	sp := gen.DefaultSpace()
	sp.MaxStagesPerApp, sp.MaxTotalStages, sp.MaxProcs = 8, 10, 10
	var zipf File
	for i := 0; len(zipf.Jobs) < 8; i++ {
		sc := sp.Sample(7, i)
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		zipf.Jobs = append(zipf.Jobs, Job{Instance: compactInstance(b, &sc.Inst), Request: RequestOf(sc.Req)})
	}
	inst := workload.MustInstance(rand.New(rand.NewSource(7)), workload.Config{
		Apps: 2, MinStages: 12, MaxStages: 12, Modes: 3, Procs: 6, Class: pipeline.FullyHomogeneous,
		MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	})
	sweep := File{Instance: compactInstance(b, &inst)}
	for i := 0; i < 8; i++ {
		sweep.Jobs = append(sweep.Jobs, Job{Request: Request{
			Objective: []string{"period", "latency", "energy"}[i%3], Model: []string{"overlap", "no-overlap"}[i%2],
			PeriodBound: 40 + float64(i), LatencyBound: 400 + float64(i),
		}})
	}
	return map[string]File{"zipf-batch": zipf, "plan-sweep": sweep}
}

func compactInstance(b *testing.B, inst *pipeline.Instance) json.RawMessage {
	var buf, compact bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, inst); err != nil {
		b.Fatal(err)
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		b.Fatal(err)
	}
	return compact.Bytes()
}

// BenchmarkBatchJobs measures building the engine jobs of an 8-job batch
// document (see benchDocuments) through a plan tier: cold resolves
// through an empty cache, so it decodes, validates and compiles every
// instance; warm through a cache that holds the plans already, so it
// decodes only the requests.
func BenchmarkBatchJobs(b *testing.B) {
	for name, doc := range benchDocuments(b) {
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := doc.Resolve(batch.NewCache()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/warm", func(b *testing.B) {
			c := batch.NewCache()
			if _, err := doc.Resolve(c); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := doc.Resolve(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestServe drives the listen-and-drain loop: a listener that cannot bind
// returns its error before any signal; a served listener drains on the
// signal context, calling the hook once, and returns nil.
func TestServe(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	busy := &http.Server{Addr: taken.Addr().String(), Handler: http.NotFoundHandler()}
	if err := Serve(context.Background(), busy, time.Second, logger, nil); err == nil {
		t.Fatal("Serve on a taken address returned nil")
	}

	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(Healthz)}
	drained := 0
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, time.Second, logger, func() { drained++ }) }()
	for i := 0; ; i++ {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i == 100 {
			t.Fatalf("server did not come up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil || drained != 1 {
			t.Fatalf("Serve returned %v with %d drain calls, want nil and 1", err, drained)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its context was done")
	}
}
