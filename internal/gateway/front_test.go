package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/servetest"
)

// countedReplicas starts n replicas behind a handler that counts the
// /v1/solve requests they see, all together.
func countedReplicas(t *testing.T, n int, cfg server.Config) ([]string, []*httptest.Server, *atomic.Int64) {
	t.Helper()
	var solves atomic.Int64
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := range urls {
		s := server.New(cfg)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/solve" {
				solves.Add(1)
			}
			s.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i], servers[i] = ts.URL, ts
	}
	return urls, servers, &solves
}

// TestGatewayFrontHitIdentity: for 24 generator scenarios and three
// Figure 1 bodies (a 200, an infeasible 422 and an invalid 400), the
// gateway's first answer and its repeat have the status, Content-Type and
// body one replica answers directly. A repeated 200 is a gateway
// front-tier hit that reaches no replica; any other repeat reaches one
// again.
func TestGatewayFrontHitIdentity(t *testing.T) {
	urls, _, solves := countedReplicas(t, 3, server.Config{CacheCap: 1024})
	g := newGateway(t, urls, Config{})
	direct := server.New(server.Config{CacheCap: 1024})
	bodies := append(corpusSolves(t, 24),
		`{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "energy", "periodBound": 2}}`,
		`{"instance": `+servetest.Fig1JSON(t)+`, "request": {"objective": "energy", "periodBound": 0.01}}`,
		`{"instance": `+servetest.Fig1JSON(t)+`, "request": {"rule": "bogus"}}`)
	kept := 0
	for i, body := range bodies {
		want := httptest.NewRecorder()
		direct.ServeHTTP(want, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
		before, hits := solves.Load(), g.front.Stats().Hits
		for send := 1; send <= 2; send++ {
			rec := postGateway(g, "/v1/solve", body)
			if rec.Code != want.Code || rec.Body.String() != want.Body.String() ||
				rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Errorf("body %d, send %d: gateway %d %q %q, a replica %d %q %q", i, send,
					rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(),
					want.Code, want.Header().Get("Content-Type"), want.Body.String())
			}
		}
		seen, hit := solves.Load()-before, g.front.Stats().Hits-hits
		switch {
		case want.Code == http.StatusOK && (seen != 1 || hit != 1):
			t.Errorf("body %d: a 200 reached the replicas %d times with %d gateway hits, want 1 and 1", i, seen, hit)
		case want.Code != http.StatusOK && (seen != 2 || hit != 0):
			t.Errorf("body %d: a %d reached the replicas %d times with %d gateway hits, want 2 and 0", i, want.Code, seen, hit)
		}
		if want.Code == http.StatusOK {
			kept++
		}
	}
	if kept < 10 || kept == len(bodies) {
		t.Errorf("%d of %d bodies answered 200; the table must exercise both kinds of answer", kept, len(bodies))
	}
	if n := g.front.Stats().Entries; n != kept {
		t.Errorf("gateway front tier holds %d answers, want %d", n, kept)
	}
}

// corpusSolves renders n corpusJobs as /v1/solve bodies.
func corpusSolves(t *testing.T, n int) []string {
	t.Helper()
	var bodies []string
	for _, job := range corpusJobs(t, n) {
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}

// TestGatewayFrontKeepsCeilingAnswer: a replica's degraded 200 under a
// work ceiling is a function of the body, so the gateway keeps it like
// any other 200: the repeat is answered with the bytes a replica with the
// same ceiling answers directly, and reaches no replica.
func TestGatewayFrontKeepsCeilingAnswer(t *testing.T) {
	const work = 16
	urls, _, solves := countedReplicas(t, 3, server.Config{SolveWork: work})
	g := newGateway(t, urls, Config{})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": ` + servetest.SlowSolveRequest + `}`
	want := httptest.NewRecorder()
	server.New(server.Config{SolveWork: work}).ServeHTTP(want, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
	for send := 1; send <= 2; send++ {
		rec := postGateway(g, "/v1/solve", body)
		var res struct{ Degraded bool }
		decode(t, rec, &res)
		if rec.Code != http.StatusOK || !res.Degraded || rec.Body.String() != want.Body.String() {
			t.Fatalf("send %d: %d %q, want the degraded 200 %q", send, rec.Code, rec.Body.String(), want.Body.String())
		}
	}
	if n := solves.Load(); n != 1 {
		t.Errorf("replicas saw %d posts of a ceilinged body, want 1", n)
	}
	if n := g.front.Stats().Entries; n != 1 {
		t.Errorf("gateway front tier kept %d answers, want the ceilinged one", n)
	}
}

// TestGatewayFrontSingleFlight: 16 concurrent posts of one new body
// reach a replica once; every one of them answers the replica's bytes.
func TestGatewayFrontSingleFlight(t *testing.T) {
	urls, _, solves := countedReplicas(t, 3, server.Config{})
	g := newGateway(t, urls, Config{})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "energy", "periodBound": 2.5}}`
	const posts = 16
	answers := make([]*httptest.ResponseRecorder, posts)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = postGateway(g, "/v1/solve", body)
		}()
	}
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("%d concurrent posts of one body reached the replicas %d times, want 1", posts, n)
	}
	for i, rec := range answers {
		if rec.Code != http.StatusOK || rec.Body.String() != answers[0].Body.String() {
			t.Errorf("post %d: %d %q, post 0 answered %q", i, rec.Code, rec.Body.String(), answers[0].Body.String())
		}
	}
}

// TestGatewayFrontAnswersWithReplicasDown: a kept answer needs no
// replica, so it is still answered when every replica is down and the
// gateway reports itself not ready; a body not kept sheds.
func TestGatewayFrontAnswersWithReplicasDown(t *testing.T) {
	urls, servers, _ := countedReplicas(t, 2, server.Config{})
	g := newGateway(t, urls, Config{Retries: -1})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "period"}}`
	first := postGateway(g, "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	for _, ts := range servers {
		ts.Close()
	}
	g.Probe(t.Context())
	if rec := getGateway(g, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with every replica down, want 503", rec.Code)
	}
	if rec := postGateway(g, "/v1/solve", body); rec.Code != http.StatusOK || rec.Body.String() != first.Body.String() {
		t.Errorf("kept body with every replica down: %d %q, want %q", rec.Code, rec.Body.String(), first.Body.String())
	}
	other := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "latency"}}`
	if rec := postGateway(g, "/v1/solve", other); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("new body with every replica down: status %d, want 503", rec.Code)
	}
}
