package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fmath"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// writeJobFile encodes the motivating example as the default instance with
// the given jobs array appended.
func writeJobFile(t *testing.T, jobsJSON string) string {
	t.Helper()
	inst := pipeline.MotivatingExample()
	var instBuf bytes.Buffer
	if err := pipeline.EncodeJSON(&instBuf, &inst); err != nil {
		t.Fatal(err)
	}
	doc := `{"instance": ` + instBuf.String() + `, "jobs": ` + jobsJSON + `}`
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func decodeOutput(t *testing.T, out *bytes.Buffer) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return doc
}

// TestPipebatchFig1 runs the Section 2 headline requests as one batch,
// including a duplicate that must be answered from the cache.
func TestPipebatchFig1(t *testing.T) {
	path := writeJobFile(t, `[
		{"request": {"rule": "interval", "objective": "period"}},
		{"request": {"rule": "interval", "objective": "energy", "periodBound": 2}},
		{"request": {"rule": "interval", "objective": "period"}},
		{"request": {"rule": "interval", "objective": "latency"}}
	]`)
	var out bytes.Buffer
	if err := run([]string{"-in", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	doc := decodeOutput(t, &out)
	results := doc["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	wantValues := []float64{1, 46, 1, 2.75}
	for i, want := range wantValues {
		r := results[i].(map[string]any)
		if errMsg, ok := r["error"]; ok {
			t.Fatalf("job %d failed: %v", i, errMsg)
		}
		if got := r["value"].(float64); !fmath.EQ(got, want) {
			t.Errorf("job %d value = %g, want %g", i, got, want)
		}
		if _, ok := r["mapping"]; !ok {
			t.Errorf("job %d has no mapping", i)
		}
	}
	stats := doc["stats"].(map[string]any)
	if hits := stats["cacheHits"].(float64); hits < 1 {
		t.Errorf("cacheHits = %g, want >= 1 (job 2 duplicates job 0)", hits)
	}
	if errs := stats["errors"].(float64); errs != 0 {
		t.Errorf("errors = %g, want 0", errs)
	}
}

// TestPipebatchPerJobErrors checks a failing job reports in place without
// aborting the others.
func TestPipebatchPerJobErrors(t *testing.T) {
	path := writeJobFile(t, `[
		{"request": {"objective": "energy"}},
		{"request": {"objective": "period"}}
	]`)
	var out bytes.Buffer
	if err := run([]string{"-in", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	doc := decodeOutput(t, &out)
	results := doc["results"].([]any)
	first := results[0].(map[string]any)
	if _, ok := first["error"]; !ok {
		t.Error("energy without period bound did not report an error")
	}
	second := results[1].(map[string]any)
	if v := second["value"].(float64); !fmath.EQ(v, 1) {
		t.Errorf("period job value = %g, want 1", v)
	}
	if errs := doc["stats"].(map[string]any)["errors"].(float64); errs != 1 {
		t.Errorf("stats.errors = %g, want 1", errs)
	}
}

// TestPipebatchStdinAndFlags exercises stdin input and -workers; the
// duplicate job is answered from the first one's solve.
func TestPipebatchStdinAndFlags(t *testing.T) {
	path := writeJobFile(t, `[
		{"request": {"objective": "period"}},
		{"request": {"objective": "period"}}
	]`)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-workers", "2"}, bytes.NewReader(data), &out); err != nil {
		t.Fatal(err)
	}
	doc := decodeOutput(t, &out)
	if hits := doc["stats"].(map[string]any)["cacheHits"].(float64); hits != 1 {
		t.Errorf("cacheHits = %g, want 1", hits)
	}
}

// TestPipebatchPerJobInstance gives one job its own instance overriding
// the default.
func TestPipebatchPerJobInstance(t *testing.T) {
	small := `{"apps": [{"weight": 1, "in": 0, "stages": [{"work": 4, "out": 0}]}],
		"platform": {"processors": [{"speeds": [2]}], "uniformBandwidth": 1}}`
	path := writeJobFile(t, `[
		{"request": {"objective": "period"}},
		{"instance": `+small+`, "request": {"objective": "period"}}
	]`)
	var out bytes.Buffer
	if err := run([]string{"-in", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	doc := decodeOutput(t, &out)
	results := doc["results"].([]any)
	if v := results[1].(map[string]any)["value"].(float64); !fmath.EQ(v, 2) {
		t.Errorf("per-job instance value = %g, want 2 (work 4 / speed 2)", v)
	}
}

// TestPipebatchBadInput rejects malformed documents.
func TestPipebatchBadInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"jobs": []}`,
		`{"jobs": [{"request": {"rule": "bogus"}}]}`,
		`{"jobs": [{"request": {"objective": "period"}}]}`, // no instance anywhere
	}
	for _, doc := range cases {
		if err := run(nil, strings.NewReader(doc), new(bytes.Buffer)); err == nil {
			t.Errorf("input %q accepted", doc)
		}
	}
	if err := run([]string{"-in", "/nope.json"}, nil, new(bytes.Buffer)); err == nil {
		t.Error("missing file accepted")
	}
}

// TestPipebatchServerRetry points -server at a flaky front end that sheds
// the first two attempts (a 429 with Retry-After, then a bare 503) before
// proxying to a real pipeserved handler: pipebatch must back off, retry,
// and come home with the same results a local run produces.
func TestPipebatchServerRetry(t *testing.T) {
	real := server.New(server.Config{})
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": "server saturated", "code": "shed"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": "circuit open", "code": "shed"}`)
		default:
			real.ServeHTTP(w, r)
		}
	}))
	defer flaky.Close()

	path := writeJobFile(t, `[
		{"request": {"rule": "interval", "objective": "period"}},
		{"request": {"rule": "interval", "objective": "latency"}}
	]`)
	var remote bytes.Buffer
	start := time.Now()
	if err := run([]string{"-in", path, "-server", flaky.URL, "-retries", "4", "-retry-base", "10ms"}, nil, &remote); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two sheds + one success)", got)
	}
	// The first shed carried Retry-After: 1, which must stretch the wait
	// beyond the 10ms backoff base.
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retries took %v; Retry-After: 1 was not honored", waited)
	}

	var local bytes.Buffer
	if err := run([]string{"-in", path}, nil, &local); err != nil {
		t.Fatal(err)
	}
	want := decodeOutput(t, &local)["results"].([]any)
	got := decodeOutput(t, &remote)["results"].([]any)
	if len(got) != len(want) {
		t.Fatalf("%d remote results, want %d", len(got), len(want))
	}
	for i := range want {
		wv := want[i].(map[string]any)["value"].(float64)
		gv := got[i].(map[string]any)["value"].(float64)
		if !fmath.EQ(wv, gv) {
			t.Errorf("result %d: remote value %g != local %g", i, gv, wv)
		}
	}
}

// TestPipebatchServerTimeoutRetries is the untimed-client satellite
// regression: a server that hangs used to stall the retry loop forever
// (http.Post has no deadline). With -http-timeout the hung attempt is cut
// off, classified retryable, and the next attempt succeeds.
func TestPipebatchServerTimeoutRetries(t *testing.T) {
	real := server.New(server.Config{})
	var calls atomic.Int32
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // hang until the test ends; the client must not wait for us
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer func() { close(release); hung.Close() }()

	path := writeJobFile(t, `[{"request": {"objective": "period"}}]`)
	var out bytes.Buffer
	start := time.Now()
	err := run([]string{"-in", path, "-server", hung.URL,
		"-http-timeout", "150ms", "-retries", "3", "-retry-base", "1ms"}, nil, &out)
	if err != nil {
		t.Fatalf("hung first attempt was not retried: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("run took %v; the per-attempt timeout did not bound the hung attempt", waited)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one hung + one success)", got)
	}
	results := decodeOutput(t, &out)["results"].([]any)
	if v := results[0].(map[string]any)["value"].(float64); !fmath.EQ(v, 1) {
		t.Errorf("value = %g, want 1", v)
	}
}

// TestPipebatchServerHTTPDateRetryAfter is the Retry-After satellite
// regression: the RFC 7231 HTTP-date form must stretch the wait exactly
// like delta-seconds (the old parser silently ignored it).
func TestPipebatchServerHTTPDateRetryAfter(t *testing.T) {
	real := server.New(server.Config{})
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": "circuit open", "code": "shed"}`)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	path := writeJobFile(t, `[{"request": {"objective": "period"}}]`)
	start := time.Now()
	if err := run([]string{"-in", path, "-server", flaky.URL, "-retries", "2", "-retry-base", "1ms"},
		nil, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	// HTTP-date resolution is whole seconds, so formatting truncates the
	// 2s target to somewhere in (1s, 2s] remaining; a wait past 500ms
	// proves the date was parsed (the backoff alone would wait ~1ms).
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Fatalf("retry waited only %v; the HTTP-date Retry-After was ignored", waited)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

// TestPipebatchServerGivesUp bounds the retry loop: a server that sheds
// forever exhausts -retries and surfaces the shed as the final error.
func TestPipebatchServerGivesUp(t *testing.T) {
	var calls atomic.Int32
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error": "server saturated", "code": "shed"}`)
	}))
	defer always.Close()

	path := writeJobFile(t, `[{"request": {"objective": "period"}}]`)
	err := run([]string{"-in", path, "-server", always.URL, "-retries", "2", "-retry-base", "1ms"}, nil, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("got %v, want a shed error after exhausted retries", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestPipebatchServerHardError pins that a non-shed failure (a 400 from
// a malformed document) is not retried.
func TestPipebatchServerHardError(t *testing.T) {
	var calls atomic.Int32
	real := server.New(server.Config{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	err := run([]string{"-server", ts.URL, "-retries", "5", "-retry-base", "1ms"},
		strings.NewReader(`{"jobs": "not an array"}`), new(bytes.Buffer))
	if err == nil {
		t.Fatal("malformed remote batch accepted")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on 400)", got)
	}
}
