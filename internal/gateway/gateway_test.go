package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
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

// TestRingBalance pins the ring's dispersion: with the default virtual
// nodes, 30 000 random route keys split over 3 replicas with a max/min
// load ratio of at most 1.3. Unmixed FNV-1a points clumped, so one
// replica took twice the keys of another whatever the vnode count.
func TestRingBalance(t *testing.T) {
	r := NewRing(3, 0)
	rng := rand.New(rand.NewSource(1))
	owned := make([]int, 3)
	for i := 0; i < 30000; i++ {
		rep, _ := r.Route(hexKey(rng.Uint64()), nil)
		owned[rep]++
	}
	if lo, hi := slices.Min(owned), slices.Max(owned); float64(hi) > 1.3*float64(lo) {
		t.Errorf("keys split %v: max/min %.2f, want <= 1.3", owned, float64(hi)/float64(lo))
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
// distinct energy-under-period-bound jobs. They share the instance, so
// they route to one replica as one sub-batch.
func batchBody(t *testing.T, n int) string {
	t.Helper()
	var jobs []string
	for i := 0; i < n; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 2+float64(i)/8))
	}
	return `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [` + strings.Join(jobs, ",") + `]}`
}

// corpusJobs draws n generator scenarios as jobs, each with its own
// instance. Branch-and-bound is capped at exactCap nodes, and
// processor-starved draws, infeasible by construction and slow to prove
// so, are skipped; other infeasible draws stay in.
func corpusJobs(t *testing.T, n int) []jobspec.Job {
	t.Helper()
	const exactCap = 500
	var jobs []jobspec.Job
	for _, sc := range gen.DefaultSpace().Corpus(1, 60) {
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		req := sc.Req
		if req.ExactLimit == 0 || req.ExactLimit > exactCap {
			req.ExactLimit = exactCap
		}
		var inst bytes.Buffer
		if err := pipeline.EncodeJSON(&inst, &sc.Inst); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, jobspec.Job{Instance: inst.Bytes(), Request: jobspec.RequestOf(req)})
		if len(jobs) == n {
			return jobs
		}
	}
	t.Fatalf("corpus yielded %d usable scenarios, want %d", len(jobs), n)
	return nil
}

// corpusBatchBody builds a /v1/batch document of n corpusJobs, so the
// jobs spread over the ring.
func corpusBatchBody(t *testing.T, n int) string {
	t.Helper()
	doc, err := json.Marshal(jobspec.File{Jobs: corpusJobs(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
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

// directBatch answers a /v1/batch document by one replica, directly:
// the ground truth a batch through the gateway must equal.
func directBatch(t *testing.T, body string) rawOutput {
	t.Helper()
	direct := httptest.NewRecorder()
	server.New(server.Config{}).ServeHTTP(direct,
		httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)))
	if direct.Code != http.StatusOK {
		t.Fatalf("direct batch: status %d: %s", direct.Code, direct.Body.String())
	}
	var want rawOutput
	decode(t, direct, &want)
	return want
}

// postBatch sends a /v1/batch document through the gateway and decodes
// its 200 answer.
func postBatch(t *testing.T, g *Gateway, body string) rawOutput {
	t.Helper()
	rec := postGateway(g, "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("gateway batch: status %d: %s", rec.Code, rec.Body.String())
	}
	var got rawOutput
	decode(t, rec, &got)
	return got
}

// sameSlots checks order preservation and the determinism pin in one
// stroke: slot i of got is byte-identical, compacted, to slot i of want.
func sameSlots(t *testing.T, name string, got, want rawOutput) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if !bytes.Equal(compactJSON(t, got.Results[i]), compactJSON(t, want.Results[i])) {
			t.Errorf("%s, slot %d differs through the gateway:\ngot  %s\nwant %s",
				name, i, got.Results[i], want.Results[i])
		}
	}
}

// batchRequests returns how many /v1/batch requests each replica has
// counted.
func batchRequests(t *testing.T, g *Gateway) []int64 {
	t.Helper()
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	counts := make([]int64, len(st.Replicas))
	for i, rep := range st.Replicas {
		if rep.Stats == nil {
			t.Fatalf("replica %s unreachable", rep.URL)
		}
		counts[i] = rep.Stats.Requests["/v1/batch"]
	}
	return counts
}

// TestGatewayBatchFanOut is the core integration test: a batch of jobs on
// distinct instances through a 3-replica gateway must answer every job in
// input order with the same bits a single replica produces, spread over
// more than one replica, and the merged stats must add up.
func TestGatewayBatchFanOut(t *testing.T) {
	const jobs = 24
	body := corpusBatchBody(t, jobs)
	want := directBatch(t, body)

	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	got := postBatch(t, g, body)
	sameSlots(t, "batch", got, want)
	if got.Stats.Jobs != jobs || got.Stats.Errors != want.Stats.Errors {
		t.Errorf("merged stats: jobs=%d errors=%d, want %d/%d", got.Stats.Jobs, got.Stats.Errors, jobs, want.Stats.Errors)
	}
	if !reflect.DeepEqual(got.Stats.Methods, want.Stats.Methods) {
		t.Errorf("merged method counts %v, one replica counts %v", got.Stats.Methods, want.Stats.Methods)
	}

	// The fan-out genuinely sharded: more than one replica saw traffic.
	counts := batchRequests(t, g)
	replicasHit := 0
	for _, n := range counts {
		if n > 0 {
			replicasHit++
		}
	}
	if replicasHit < 2 {
		t.Errorf("only %d replicas saw sub-batches; ring is not spreading", replicasHit)
	}
	// Merged stats arithmetic: the cluster-wide request count is the sum
	// of the per-replica counts.
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Merged.Requests["/v1/batch"] != sum(counts) {
		t.Errorf("merged /v1/batch = %d, per-replica counts %v", st.Merged.Requests["/v1/batch"], counts)
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

// TestGatewayBatchOneInstanceOneReplica pins the routing policy: the
// jobs of a batch on one instance go to one replica as one sub-batch,
// however many distinct requests they carry, and answer the bits a
// single replica answers. A batch over two instances makes at most two
// sub-batches.
func TestGatewayBatchOneInstanceOneReplica(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	body := batchBody(t, 24)
	sameSlots(t, "one instance", postBatch(t, g, body), directBatch(t, body))
	counts := batchRequests(t, g)
	if slices.Max(counts) != 1 || sum(counts) != 1 {
		t.Errorf("replicas counted %v /v1/batch requests, want one sub-batch on one replica", counts)
	}

	// Figure 1 at file level, and every other job on a generator
	// instance of its own.
	own, err := json.Marshal(corpusJobs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for i := 0; i < 12; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"request": {"objective": "energy", "periodBound": %g}}`, 2+float64(i)/8), string(own))
	}
	two := `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [` + strings.Join(jobs, ",") + `]}`
	sameSlots(t, "two instances", postBatch(t, g, two), directBatch(t, two))
	if n := sum(batchRequests(t, g)) - sum(counts); n < 1 || n > 2 {
		t.Errorf("a batch over two instances made %d sub-batches, want 1 or 2", n)
	}
}

func sum(counts []int64) (n int64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// TestGatewayForwardsJobBytes pins that a job reaches its replica as the
// client wrote it: an explicitly empty bound list (which a replica
// rejects with a 400, unlike an absent one) must not be re-encoded away,
// so the gateway answers exactly what one replica answers, status and
// error body or result slots — also for documents spelled unusually:
// escaped and case-folded keys, a repeated instance key, and a repeated
// "jobs" key whose arrays a replica merges slot by slot.
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
		name := fmt.Sprintf("document %d", n)
		rec := postGateway(g, "/v1/batch", body)
		direct := httptest.NewRecorder()
		server.New(server.Config{}).ServeHTTP(direct, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)))
		switch {
		case rec.Code != direct.Code:
			t.Errorf("%s: the gateway answered %d %s, a replica %d %s", name, rec.Code, rec.Body, direct.Code, direct.Body)
		case rec.Code != http.StatusOK:
			if rec.Body.String() != direct.Body.String() {
				t.Errorf("%s: the gateway answered %s, a replica %s", name, rec.Body, direct.Body)
			}
		default:
			var got, want rawOutput
			decode(t, rec, &got)
			decode(t, direct, &want)
			sameSlots(t, name, got, want)
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
// yields byte-identical result arrays, for jobs on one instance and for
// jobs spread over many.
func TestGatewayDeterminismAcrossClusterSizes(t *testing.T) {
	for _, body := range []string{batchBody(t, 16), corpusBatchBody(t, 16)} {
		var outputs []rawOutput
		for _, n := range []int{1, 4} {
			urls, _ := startReplicas(t, n, server.Config{})
			outputs = append(outputs, postBatch(t, newGateway(t, urls, Config{}), body))
		}
		sameSlots(t, "4 replicas against 1", outputs[1], outputs[0])
	}
}

// TestGatewayReroutesDownShard kills one replica mid-flight: the batch
// must still answer every job with a single replica's bits (the dead
// replica's keys walk to their ring successors), the gateway must record
// the reroute, and a probe must mark the replica down.
func TestGatewayReroutesDownShard(t *testing.T) {
	urls, servers := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{Retries: -1}) // no retries: fail over immediately
	servers[1].Close()

	body := corpusBatchBody(t, 24)
	sameSlots(t, "batch with a dead replica", postBatch(t, g, body), directBatch(t, body))
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
	postBatch(t, g, body)
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

// TestGatewayPersistentShedKeepsReplica fronts the gateway with one
// replica that sheds every request with 503. A sub-batch still shed past
// the retries is the replica's answer, as forward relays it for a single
// solve: the slots answer shed, the replica stays in the ring and nothing
// reroutes.
func TestGatewayPersistentShedKeepsReplica(t *testing.T) {
	var posts atomic.Int64
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable) // no Retry-After: the retry waits the short backoff
		fmt.Fprint(w, `{"error": "overloaded", "code": "shed"}`)
	}))
	t.Cleanup(shedding.Close)

	g := newGateway(t, []string{shedding.URL}, Config{Retries: 1})
	rec := postGateway(g, "/v1/batch", batchBody(t, 4))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-job errors: %s", rec.Code, rec.Body.String())
	}
	var out rawOutput
	decode(t, rec, &out)
	for i, slot := range out.Results {
		var res jobspec.Result
		if err := json.Unmarshal(slot, &res); err != nil || res.Code != jobspec.CodeShed {
			t.Errorf("slot %d: %s, want code shed", i, slot)
		}
	}
	if !g.Healthy(0) {
		t.Error("replica marked down by its own shed")
	}
	if n := posts.Load(); n != 2 {
		t.Errorf("replica saw %d posts, want 2 (one attempt and one retry)", n)
	}
	var st gatewayStatsJSON
	decode(t, getGateway(g, "/stats"), &st)
	if st.Rerouted != 0 {
		t.Errorf("rerouted = %d, want 0", st.Rerouted)
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

// TestGatewaySolvePassthrough routes single solves by instance bytes and
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

// TestGatewayResolveMeetsSolvePlan sends a /v1/solve and then a
// /v1/resolve on one instance through 3 replicas, for Figure 1 and
// generator instances. Both route by the instance, so the resolve's plan
// lookup hits on the replica that looked the plan up for the solve, and
// no other replica looks one up.
func TestGatewayResolveMeetsSolvePlan(t *testing.T) {
	urls, _ := startReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	type planStats struct{ hits, misses int64 }
	plans := func() []planStats {
		var st gatewayStatsJSON
		decode(t, getGateway(g, "/stats"), &st)
		var out []planStats
		for _, rep := range st.Replicas {
			if rep.Stats == nil {
				t.Fatalf("replica %s unreachable", rep.URL)
			}
			out = append(out, planStats{rep.Stats.PlanHits, rep.Stats.PlanMisses})
		}
		return out
	}

	jobs := append([]jobspec.Job{{Instance: json.RawMessage(servetest.Fig1JSON(t))}}, corpusJobs(t, 8)...)
	for n, job := range jobs {
		solve, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		// The solve body with an event member put in front.
		resolve := `{"event": {"kind": "proc-fail", "proc": 0}, ` + string(solve[1:])
		var seen [3][]planStats
		seen[0] = plans()
		for i, req := range []struct{ path, body string }{{"/v1/solve", string(solve)}, {"/v1/resolve", resolve}} {
			// A generator job may be infeasible (422); its plan is looked
			// up all the same.
			if rec := postGateway(g, req.path, req.body); rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("job %d: %s: status %d: %s", n, req.path, rec.Code, rec.Body.String())
			}
			seen[i+1] = plans()
		}
		owner := -1
		for rep := range seen[0] {
			if seen[1][rep] != seen[0][rep] {
				owner = rep
			}
		}
		for rep := range seen[1] {
			want := seen[1][rep]
			if rep == owner {
				want.hits++
			}
			if seen[2][rep] != want {
				t.Errorf("job %d: the resolve moved replica %d's plan stats from %+v to %+v; the solve looked its plan up on replica %d",
					n, rep, seen[1][rep], seen[2][rep], owner)
			}
		}
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
// forwarded, under the same rule as the server's, and that an oversized
// document to any POST endpoint gets the answer of a replica with the
// same cap.
func TestGatewayOversizedBodyAllEndpoints(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	capped := newGateway(t, urls, Config{MaxBody: 1024})
	servetest.OversizedBodyAllEndpoints(t, capped, newGateway(t, urls, Config{}))
	replica := server.New(server.Config{MaxBody: 1024})
	for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/pareto", "/v1/simulate", "/v1/resolve"} {
		direct := httptest.NewRecorder()
		replica.ServeHTTP(direct, httptest.NewRequest("POST", path, strings.NewReader(servetest.OversizedBody)))
		if rec := postGateway(capped, path, servetest.OversizedBody); rec.Code != direct.Code || rec.Body.String() != direct.Body.String() {
			t.Errorf("%s: %d %s, a replica answers %d %s", path, rec.Code, rec.Body.String(), direct.Code, direct.Body.String())
		}
	}
}

// TestGatewaySimulateDatasetsCap: a /v1/simulate body asking for 2^62
// datasets gets a replica's 400 invalid through the gateway, and leaves
// the replica in the ring.
func TestGatewaySimulateDatasetsCap(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	g := newGateway(t, urls, Config{})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "mapping": ` + servetest.Fig1Mapping + `, "datasets": 4611686018427387904}`
	direct := httptest.NewRecorder()
	server.New(server.Config{}).ServeHTTP(direct, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)))
	rec := postGateway(g, "/v1/simulate", body)
	if rec.Code != http.StatusBadRequest || rec.Code != direct.Code || rec.Body.String() != direct.Body.String() {
		t.Fatalf("gateway %d %s, a replica %d %s, want both 400", rec.Code, rec.Body.String(), direct.Code, direct.Body.String())
	}
	var e struct{ Code string }
	decode(t, rec, &e)
	if e.Code != jobspec.CodeInvalid {
		t.Errorf("code %q, want invalid", e.Code)
	}
	if !g.Healthy(0) {
		t.Error("the replica was marked down by a refused simulation")
	}
}

// TestGatewayEffortCaps: a /v1/solve or /v1/batch request over an effort
// cap is answered through the gateway as a replica answers it, 400
// invalid, and the replica stays in the ring.
func TestGatewayEffortCaps(t *testing.T) {
	urls, _ := startReplicas(t, 1, server.Config{})
	g := newGateway(t, urls, Config{})
	for _, field := range []string{`"heurIters": 1000001`, `"heurRestarts": 17`, `"exactLimit": 20000001`} {
		req := `{"objective": "period", ` + field + `}`
		for _, c := range []struct{ path, body string }{
			{"/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": ` + req + `}`},
			{"/v1/batch", `{"instance": ` + servetest.Fig1JSON(t) + `, "jobs": [{"request": {}}, {"request": ` + req + `}]}`},
		} {
			direct := httptest.NewRecorder()
			server.New(server.Config{}).ServeHTTP(direct, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
			rec := postGateway(g, c.path, c.body)
			if rec.Code != http.StatusBadRequest || rec.Code != direct.Code || rec.Body.String() != direct.Body.String() {
				t.Fatalf("%s %s: gateway %d %s, a replica %d %s, want both 400", c.path, field, rec.Code, rec.Body.String(), direct.Code, direct.Body.String())
			}
			var e struct{ Code string }
			decode(t, rec, &e)
			if e.Code != jobspec.CodeInvalid {
				t.Errorf("%s %s: code %q, want invalid", c.path, field, e.Code)
			}
		}
	}
	if !g.Healthy(0) {
		t.Error("the replica was marked down by a refused request")
	}
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

// TestGatewayWarmWorkingSetHits is the warm-cache gate: the mapping
// questions have deterministic answers, so a working set that fits every
// replica's cache is, once warm, answered from cache alone. Sixteen
// generator scenarios (infeasible draws included) go through a 3-replica
// cluster as one /v1/batch document and as 16 /v1/solve bodies, twice.
// Over the second pass no job misses the result memo or the plan tier,
// every job counts one cache hit, and the front counters name the tier
// that answered each solve: the front tier for every 200, the result
// memo for every error answer (the front tier keeps only 200s).
func TestGatewayWarmWorkingSetHits(t *testing.T) {
	const jobs = 16
	file := jobspec.File{Jobs: corpusJobs(t, jobs)}
	var solves []string
	for _, job := range file.Jobs {
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		solves = append(solves, string(body))
	}
	doc, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}

	urls, _ := startReplicas(t, 3, server.Config{CacheCap: 64})
	g := newGateway(t, urls, Config{})
	// pass sends the working set once each way and counts the solve
	// answers by status. An error answer may only be an infeasible draw.
	pass := func() (ok, failed int64) {
		rec := postGateway(g, "/v1/batch", string(doc))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
		}
		var out struct {
			Results []struct{ Error, Code string } `json:"results"`
		}
		decode(t, rec, &out)
		if len(out.Results) != jobs {
			t.Fatalf("batch answered %d slots, want %d", len(out.Results), jobs)
		}
		for i, r := range out.Results {
			if r.Error != "" && r.Code != jobspec.CodeInfeasible {
				t.Errorf("batch job %d failed with code %q: %s", i, r.Code, r.Error)
			}
		}
		for i, body := range solves {
			rec := postGateway(g, "/v1/solve", body)
			if rec.Code == http.StatusOK {
				ok++
				continue
			}
			failed++
			var e struct{ Code string }
			decode(t, rec, &e)
			if rec.Code != http.StatusUnprocessableEntity || e.Code != jobspec.CodeInfeasible {
				t.Errorf("solve %d: status %d code %q: %s", i, rec.Code, e.Code, rec.Body.String())
			}
		}
		return ok, failed
	}
	merged := func() jobspec.ServiceStats {
		var st gatewayStatsJSON
		decode(t, getGateway(g, "/stats"), &st)
		if st.Merged.Replicas != 3 {
			t.Fatalf("/stats reached %d replicas, want 3", st.Merged.Replicas)
		}
		return st.Merged.ServiceStats
	}

	pass()
	before := merged()
	ok, failed := pass()
	after := merged()
	if ok == 0 || failed == 0 {
		t.Fatalf("second pass: %d 200 and %d error solves; the set must exercise both tiers", ok, failed)
	}
	for _, d := range []struct {
		name      string
		got, want int64
	}{
		{"cacheMisses", after.CacheMisses - before.CacheMisses, 0},
		{"planMisses", after.PlanMisses - before.PlanMisses, 0},
		{"cacheHits", after.CacheHits - before.CacheHits, 2 * jobs},
		{"frontHits", after.FrontHits - before.FrontHits, ok},
		{"frontMisses", after.FrontMisses - before.FrontMisses, failed},
	} {
		if d.got != d.want {
			t.Errorf("warm pass moved %s by %d, want %d", d.name, d.got, d.want)
		}
	}
}
