package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/server"
	"repro/internal/servetest"
)

// --- Router unit tests ---

// TestRingRouting pins the consistent-hash ring's contract: routing is
// deterministic, every replica owns a share of the key space, a downed
// replica's keys move to successors while everyone else's keys stay put,
// and a fully unhealthy ring reports ok=false.
func TestRingRouting(t *testing.T) {
	r := NewRing(5, 0)
	if r.Replicas() != 5 {
		t.Fatalf("Replicas = %d", r.Replicas())
	}
	owned := make(map[int]int)
	home := make(map[string]int)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		rep, ok := r.Route(key, nil)
		if !ok {
			t.Fatalf("key %q unroutable on a healthy ring", key)
		}
		if again, _ := r.Route(key, nil); again != rep {
			t.Fatalf("key %q routed to %d then %d", key, rep, again)
		}
		owned[rep]++
		home[key] = rep
	}
	for rep := 0; rep < 5; rep++ {
		if owned[rep] == 0 {
			t.Errorf("replica %d owns no keys out of 2000", rep)
		}
	}

	// Down replica 2: its keys must move, everyone else's must not.
	healthy := func(i int) bool { return i != 2 }
	moved := 0
	for key, rep := range home {
		now, ok := r.Route(key, healthy)
		if !ok || now == 2 {
			t.Fatalf("key %q routed to downed replica (ok=%v now=%d)", key, ok, now)
		}
		if rep != 2 && now != rep {
			t.Errorf("key %q owned by healthy replica %d was moved to %d", key, rep, now)
		}
		if rep == 2 && now != rep {
			moved++
		}
	}
	if moved != owned[2] {
		t.Errorf("moved %d keys, want all %d keys of the downed replica", moved, owned[2])
	}

	if _, ok := r.Route("any", func(int) bool { return false }); ok {
		t.Error("fully unhealthy ring still routed a key")
	}
}

// TestRingRouteAllocatesNothing pins that routing, with and without a
// partial or full outage, allocates nothing.
func TestRingRouteAllocatesNothing(t *testing.T) {
	r := NewRing(5, 0)
	healthy := func(i int) bool { return i%2 == 0 }
	allocs := testing.AllocsPerRun(100, func() {
		r.Route("0123456789abcdef", nil)
		r.Route("fedcba9876543210", healthy)
		r.Route("any", func(int) bool { return false })
	})
	if allocs != 0 {
		t.Errorf("Route allocates %.1f times per call", allocs)
	}
}

// --- Retry-After parsing (bugfix satellite) ---

// TestParseRetryAfter is the Retry-After satellite regression: RFC 7231
// allows both delta-seconds and an HTTP-date, and garbage must fall back
// to 0 (the caller's own backoff), never an error or a huge wait.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // already elapsed
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},               // long past
		{"soon", 0},
		{"12.5", 0},
		{"Notaday, 40 Foo 2026 99:99:99 GMT", 0},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(c.in, now); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// --- integration harness ---

// startReplicas spins n in-process pipeserved replicas and returns their
// base URLs plus the test servers (for targeted shutdowns).
func startReplicas(t *testing.T, n int, cfg server.Config) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(cfg))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = ts
	}
	return urls, servers
}

func newGateway(t *testing.T, urls []string, cfg Config) *Gateway {
	t.Helper()
	cfg.Replicas = urls
	if cfg.Client == nil {
		cfg.Client = NewClient(10 * time.Second)
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// batchBody builds a /v1/batch document over the Figure 1 instance with n
// distinct energy-under-period-bound jobs (each bound is a distinct
// canonical key, so the jobs spread over the ring).
func batchBody(t *testing.T, n int) string {
	t.Helper()
	var jobs []string
	for i := 0; i < n; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 2+float64(i)/8))
	}
	return `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [` + strings.Join(jobs, ",") + `]}`
}

func postGateway(g *Gateway, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func getGateway(g *Gateway, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, dst any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

// rawOutput decodes a batch response keeping the result slots raw, for
// bit-identity comparisons.
type rawOutput struct {
	Results []json.RawMessage `json:"results"`
	Stats   jobspec.Stats     `json:"stats"`
}

// TestGatewayBatchFanOut is the core integration test: a batch through a
// 3-replica gateway must answer every job in input order with the same
// bits a single replica produces, and the merged stats must add up.
func TestGatewayBatchFanOut(t *testing.T) {
	const jobs = 24
	body := batchBody(t, jobs)

	// Ground truth: the same document answered by one replica directly.
	direct := httptest.NewRecorder()
	server.New(server.Config{}).ServeHTTP(direct,
		httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)))
	if direct.Code != http.StatusOK {
		t.Fatalf("direct batch: status %d: %s", direct.Code, direct.Body.String())
	}
	var want rawOutput
	decode(t, direct, &want)

	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	rec := postGateway(g, "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("gateway batch: status %d: %s", rec.Code, rec.Body.String())
	}
	var got rawOutput
	decode(t, rec, &got)

	if len(got.Results) != jobs {
		t.Fatalf("%d results for %d jobs", len(got.Results), jobs)
	}
	// Order preservation and the determinism pin in one stroke: slot i
	// through the sharded cluster is byte-identical to slot i from a
	// single replica.
	for i := range got.Results {
		if !bytes.Equal(compactJSON(t, got.Results[i]), compactJSON(t, want.Results[i])) {
			t.Errorf("slot %d differs through the gateway:\ngot  %s\nwant %s",
				i, got.Results[i], want.Results[i])
		}
	}
	if got.Stats.Jobs != jobs || got.Stats.Errors != 0 {
		t.Errorf("merged stats: jobs=%d errors=%d, want %d/0", got.Stats.Jobs, got.Stats.Errors, jobs)
	}
	methods := 0
	for _, n := range got.Stats.Methods {
		methods += n
	}
	if methods != jobs {
		t.Errorf("merged method counts sum to %d, want %d", methods, jobs)
	}

	// The fan-out genuinely sharded: more than one replica saw traffic.
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	replicasHit := 0
	for _, rep := range st.Replicas {
		if rep.Stats != nil && rep.Stats.Requests["/v1/batch"] > 0 {
			replicasHit++
		}
	}
	if replicasHit < 2 {
		t.Errorf("only %d replicas saw sub-batches; ring is not spreading", replicasHit)
	}
	// Merged stats arithmetic: the cluster-wide request count is the sum
	// of the per-replica counts.
	var sum int64
	for _, rep := range st.Replicas {
		if rep.Stats != nil {
			sum += rep.Stats.Requests["/v1/batch"]
		}
	}
	if st.Merged.Requests["/v1/batch"] != sum || sum == 0 {
		t.Errorf("merged /v1/batch = %d, per-replica sum = %d", st.Merged.Requests["/v1/batch"], sum)
	}
	var misses int64
	for _, rep := range st.Replicas {
		if rep.Stats != nil {
			misses += rep.Stats.CacheMisses
		}
	}
	if st.Merged.CacheMisses != misses {
		t.Errorf("merged cache misses = %d, per-replica sum = %d", st.Merged.CacheMisses, misses)
	}
}

// TestGatewayForwardsJobBytes pins that a job reaches its replica as the
// client wrote it: an explicitly empty bound list (which the solver
// rejects, unlike an absent one) must not be re-encoded away, so the
// gateway answers exactly what one replica answers — also for documents
// spelled unusually: escaped and case-folded keys, a repeated instance
// key, and a repeated "jobs" key whose arrays a replica merges slot by
// slot.
func TestGatewayForwardsJobBytes(t *testing.T) {
	fig1 := servetest.Fig1JSON(t)
	bodies := []string{
		`{"instance": ` + fig1 + `, "jobs": [
			{"request": {"objective": "period", "periodBounds": []}},
			{"request": {"objective": "period"}}]}`,
		`{"\u0069nstance": {}, "Instance": ` + fig1 + `, "\u006aobs": [
			{"REQUEST": {"objective": "period", "periodBounds": []}},
			{"req\u0075est": {"objective": "period"}}]}`,
		`{"instance": ` + fig1 + `, "jobs": [
			{"request": {"objective": "energy", "periodBound": 2}},
			{"request": {"objective": "period"}}], "jobs": [
			{"request": {"seed": 1}}, null]}`,
	}
	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	for n, body := range bodies {
		direct := httptest.NewRecorder()
		server.New(server.Config{}).ServeHTTP(direct,
			httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)))
		var want, got rawOutput
		decode(t, direct, &want)
		decode(t, postGateway(g, "/v1/batch", body), &got)
		if len(got.Results) != len(want.Results) {
			t.Fatalf("document %d: %d results, want %d", n, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if !bytes.Equal(compactJSON(t, got.Results[i]), compactJSON(t, want.Results[i])) {
				t.Errorf("document %d, slot %d through the gateway:\ngot  %s\nwant %s", n, i, got.Results[i], want.Results[i])
			}
		}
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.Bytes()
}

// TestGatewayDeterminismAcrossClusterSizes pins the bit-identity claim
// directly: the same batch through a 1-replica and a 4-replica gateway
// yields byte-identical result arrays.
func TestGatewayDeterminismAcrossClusterSizes(t *testing.T) {
	body := batchBody(t, 16)
	var outputs []rawOutput
	for _, n := range []int{1, 4} {
		urls, _ := startReplicas(t, n, server.Config{})
		g := newGateway(t, urls, Config{})
		rec := postGateway(g, "/v1/batch", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d replicas: status %d: %s", n, rec.Code, rec.Body.String())
		}
		var out rawOutput
		decode(t, rec, &out)
		outputs = append(outputs, out)
	}
	for i := range outputs[0].Results {
		a, b := compactJSON(t, outputs[0].Results[i]), compactJSON(t, outputs[1].Results[i])
		if !bytes.Equal(a, b) {
			t.Errorf("slot %d: 1-replica %s != 4-replica %s", i, a, b)
		}
	}
}

// TestGatewayReroutesDownShard kills one replica mid-flight: the batch
// must still answer every job (the dead replica's keys walk to their ring
// successors), the gateway must record the reroute, and a probe must mark
// the replica down.
func TestGatewayReroutesDownShard(t *testing.T) {
	urls, servers := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{Retries: -1}) // no retries: fail over immediately
	servers[1].Close()

	rec := postGateway(g, "/v1/batch", batchBody(t, 24))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out rawOutput
	decode(t, rec, &out)
	if out.Stats.Errors != 0 {
		t.Fatalf("batch with a dead replica: %d errors: %s", out.Stats.Errors, rec.Body.String())
	}
	for i, slot := range out.Results {
		var res jobspec.Result
		if err := json.Unmarshal(slot, &res); err != nil || res.Error != "" {
			t.Errorf("slot %d failed after reroute: %s", i, slot)
		}
	}
	if g.Healthy(1) {
		t.Error("dead replica still marked healthy after a failed sub-batch")
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Rerouted == 0 {
		t.Error("no reroutes recorded despite a dead replica")
	}

	// The same document again: everything routes around the dead replica
	// with no further reroutes needed (its keys' successors are now home).
	rerouted := st.Rerouted
	if rec := postGateway(g, "/v1/batch", batchBody(t, 24)); rec.Code != http.StatusOK {
		t.Fatalf("second batch: status %d", rec.Code)
	}
	decode(t, getGateway(g, "/stats"), &st)
	if st.Rerouted != rerouted {
		t.Errorf("second batch rerouted again (%d -> %d); health view not applied at routing time",
			rerouted, st.Rerouted)
	}
}

// TestGatewayRetriesShedUpstream fronts a replica with a wrapper that
// sheds the first attempt of every sub-batch with 503 + Retry-After: the
// gateway must honor the hint, retry, and deliver the batch without
// surfacing the shed.
func TestGatewayRetriesShedUpstream(t *testing.T) {
	inner := server.New(server.Config{})
	var attempts atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") && attempts.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": "try later", "code": "shed"}`)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	g := newGateway(t, []string{flaky.URL}, Config{Retries: 2})
	rec := postGateway(g, "/v1/batch", batchBody(t, 4))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out rawOutput
	decode(t, rec, &out)
	if out.Stats.Errors != 0 {
		t.Fatalf("errors after retry: %s", rec.Body.String())
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Retried == 0 {
		t.Error("no retries recorded despite the shedding upstream")
	}
}

// TestGatewaySubBatchTimeoutKeepsReplicas sends a batch to replicas
// whose request budget is too small for it: each answers 504 to its
// sub-batch. That is the batch's failure, not the replica's: the slots
// answer timeout, every replica stays in the ring and nothing reroutes.
func TestGatewaySubBatchTimeoutKeepsReplicas(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{Timeout: time.Microsecond})
	g := newGateway(t, urls, Config{})
	rec := postGateway(g, "/v1/batch", batchBody(t, 12))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-job errors: %s", rec.Code, rec.Body.String())
	}
	var out rawOutput
	decode(t, rec, &out)
	for i, slot := range out.Results {
		var res jobspec.Result
		if err := json.Unmarshal(slot, &res); err != nil || res.Code != jobspec.CodeTimeout {
			t.Errorf("slot %d: %s, want code timeout", i, slot)
		}
	}
	if out.Stats.Errors != 12 {
		t.Errorf("errors = %d, want 12", out.Stats.Errors)
	}
	for i := range urls {
		if !g.Healthy(i) {
			t.Errorf("replica %d marked down by its own 504", i)
		}
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Rerouted != 0 {
		t.Errorf("rerouted = %d, want 0", st.Rerouted)
	}
}

// TestGatewayAllReplicasDown pins the endgame: with no healthy replica,
// batch slots answer structured shed errors (the batch itself is not an
// HTTP failure) while an invalid batch still answers its 400, /readyz
// goes 503, and single solves shed with Retry-After.
func TestGatewayAllReplicasDown(t *testing.T) {
	urls, servers := startReplicas(t, 2, server.Config{})
	g := newGateway(t, urls, Config{Retries: -1})
	for _, ts := range servers {
		ts.Close()
	}

	rec := postGateway(g, "/v1/batch", batchBody(t, 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-job errors", rec.Code)
	}
	var out rawOutput
	decode(t, rec, &out)
	if out.Stats.Errors != 3 {
		t.Fatalf("errors = %d, want 3: %s", out.Stats.Errors, rec.Body.String())
	}
	for i, slot := range out.Results {
		var res jobspec.Result
		if err := json.Unmarshal(slot, &res); err != nil || res.Code != jobspec.CodeShed {
			t.Errorf("slot %d: %s, want code shed", i, slot)
		}
	}

	// No replica can reject an invalid batch now; the gateway's own check
	// must still answer what a replica would.
	invalid := `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [
		{"request": {"objective": "period"}}, {"request": {"rule": "bogus"}}]}`
	direct := httptest.NewRecorder()
	server.New(server.Config{}).ServeHTTP(direct,
		httptest.NewRequest("POST", "/v1/batch", strings.NewReader(invalid)))
	if rec := postGateway(g, "/v1/batch", invalid); rec.Code != direct.Code || rec.Body.String() != direct.Body.String() {
		t.Errorf("invalid batch: %d %s, a replica answers %d %s", rec.Code, rec.Body.String(), direct.Code, direct.Body.String())
	}

	if rec := getGateway(g, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d with all replicas down, want 503", rec.Code)
	}
	solve := postGateway(g, "/v1/solve",
		`{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "period"}}`)
	if solve.Code != http.StatusServiceUnavailable {
		t.Errorf("solve status %d, want 503", solve.Code)
	}
	if solve.Header().Get("Retry-After") == "" {
		t.Error("shed solve has no Retry-After")
	}
}

// TestGatewayProbeRecovery takes a replica down via probes, then brings a
// fresh replica up at a new URL... (the httptest listener cannot be
// reopened on the same port, so recovery is exercised on the health bits
// directly): Probe must flip health both ways.
func TestGatewayProbeRecovery(t *testing.T) {
	urls, servers := startReplicas(t, 2, server.Config{})
	g := newGateway(t, urls, Config{})
	ctx := t.Context()

	g.Probe(ctx)
	if !g.Healthy(0) || !g.Healthy(1) {
		t.Fatal("probe marked a live replica down")
	}
	servers[0].Close()
	g.Probe(ctx)
	if g.Healthy(0) {
		t.Fatal("probe kept a dead replica healthy")
	}
	if g.Healthy(1) != true {
		t.Fatal("probe downed the surviving replica")
	}
	if rec := getGateway(g, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d with one healthy replica, want 200", rec.Code)
	}

	// A draining replica (readyz 503, healthz 200) must also be routed
	// around — readiness, not liveness, is the routing signal.
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	g2 := newGateway(t, []string{ts.URL}, Config{})
	g2.Probe(ctx)
	if !g2.Healthy(0) {
		t.Fatal("probe downed a ready replica")
	}
	srv.SetDraining(true)
	g2.Probe(ctx)
	if g2.Healthy(0) {
		t.Error("probe kept a draining replica in the ring")
	}
}

// TestGatewaySolvePassthrough routes single solves by canonical key and
// relays the replica's response verbatim, including error documents.
func TestGatewaySolvePassthrough(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})

	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "energy", "periodBound": 2}}`
	rec := postGateway(g, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res jobspec.Result
	decode(t, rec, &res)
	if res.Value != 46 {
		t.Errorf("value = %g, want 46 (the Figure 1 answer)", res.Value)
	}

	// An infeasible request's 422 error document passes through untouched.
	infeasible := postGateway(g, "/v1/solve",
		`{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "energy", "periodBound": 0.01}}`)
	if infeasible.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible solve: status %d, want 422: %s", infeasible.Code, infeasible.Body.String())
	}
	var e struct {
		Code string `json:"code"`
	}
	decode(t, infeasible, &e)
	if e.Code != jobspec.CodeInfeasible {
		t.Errorf("code = %q, want infeasible", e.Code)
	}

	// Repeats of the same key land on the same replica: its cache answers.
	postGateway(g, "/v1/solve", body)
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Merged.CacheHits == 0 {
		t.Error("repeated solve produced no cache hit anywhere; key routing is unstable")
	}
}

// TestGatewayPropertyErrorResponsesAreStructuredJSON runs the server's
// corruption table (see servetest) against the gateway handler: errors
// the gateway answers itself and errors it relays from a replica must
// both be structured JSON with a code, and its own body cap answers 413.
func TestGatewayPropertyErrorResponsesAreStructuredJSON(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	servetest.ErrorResponsesAreStructuredJSON(t, newGateway(t, urls, Config{MaxBody: 64 << 10}))
}

// TestGatewayOversizedBodyAllEndpoints asserts the gateway's body cap
// protects every POST endpoint with a structured 413 before anything is
// forwarded, under the same rule as the server's.
func TestGatewayOversizedBodyAllEndpoints(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	servetest.OversizedBodyAllEndpoints(t,
		newGateway(t, urls, Config{MaxBody: 1024}), newGateway(t, urls, Config{}))
}

// TestGatewayUnmatchedPathsShareOneCounter keeps the gateway's per-route
// counter map bounded: arbitrary probed paths must not each earn a map
// entry, and are counted together instead of dropped.
func TestGatewayUnmatchedPathsShareOneCounter(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	g := newGateway(t, urls, Config{})
	for _, p := range []string{"/admin", "/.env", "/nope/deeper"} {
		if rec := getGateway(g, p); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", p, rec.Code)
		}
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Requests["unmatched"] != 3 {
		t.Errorf("unmatched = %d, want 3 (map: %v)", st.Requests["unmatched"], st.Requests)
	}
	for k := range st.Requests {
		if strings.HasPrefix(k, "/admin") || strings.HasPrefix(k, "/.env") || strings.HasPrefix(k, "/nope") {
			t.Errorf("probed path %q earned its own counter entry", k)
		}
	}
}

// TestGatewayMergedStats pins the merged block against the replicas' own
// documents: every additive field is the sum over the reachable
// replicas, including the queued and per-method totals.
func TestGatewayMergedStats(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{CacheCap: 64})
	g := newGateway(t, urls, Config{})
	for range 2 {
		if rec := postGateway(g, "/v1/batch", batchBody(t, 12)); rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	var want jobspec.ServiceStats
	for _, rep := range st.Replicas {
		if rep.Stats == nil {
			t.Fatalf("replica %s unreachable", rep.URL)
		}
		want.Merge(*rep.Stats)
	}
	// The /stats sample itself is in flight on every replica it reaches.
	if st.Merged.Replicas != 3 || st.Merged.InFlight != 3 {
		t.Errorf("merged replicas/inFlight = %d/%d, want 3/3", st.Merged.Replicas, st.Merged.InFlight)
	}
	if !reflect.DeepEqual(st.Merged.ServiceStats, want) {
		t.Errorf("merged = %+v\nwant     %+v", st.Merged.ServiceStats, want)
	}
	jobs := int64(0)
	for _, n := range st.Merged.Methods {
		jobs += n
	}
	if jobs != 24 || st.Merged.CacheHits != 12 || st.Merged.CacheCap != 3*64 {
		t.Errorf("merged methods=%d cacheHits=%d cacheCap=%d, want 24/12/%d",
			jobs, st.Merged.CacheHits, st.Merged.CacheCap, 3*64)
	}
}
