package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobspec"
)

// newClient is the generator's HTTP client: at most nproc connections to
// the gateway, all kept alive between requests.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
}

// loadgen sends corpus requests to one cluster and checks every answer
// against the oracle.
type loadgen struct {
	client *http.Client
	url    string
	c      *corpus
	t      *tracer // nil sends untraced requests

	attempted, failed atomic.Int64
	mu                sync.Mutex
	wrong             error // the first wrong answer
}

// sample is one request's timing: from sending it to reading its whole
// answer, and the part of that spent waiting for a connection.
type sample struct {
	latency, connWait time.Duration
	ok                bool
}

func (g *loadgen) send(r *request) sample {
	start := time.Now()
	var gotConn atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn.Store(int64(time.Since(start))) },
	})
	status, body, err := g.post(ctx, r)
	s := sample{latency: time.Since(start), connWait: time.Duration(gotConn.Load())}
	failed := err != nil
	var wrong error
	if !failed {
		failed, wrong = g.c.check(r, status, body)
	}
	g.attempted.Add(1)
	if failed {
		g.failed.Add(1)
	}
	if wrong != nil {
		g.mu.Lock()
		if g.wrong == nil {
			g.wrong = wrong
		}
		g.mu.Unlock()
	}
	s.ok = !failed && wrong == nil
	return s
}

func (g *loadgen) post(ctx context.Context, r *request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+g.c.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.t != nil {
		root := g.t.root()
		root.ref().stamp(req.Header)
		defer func() {
			root.End = g.t.now()
			g.t.record(root)
		}()
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// closedLoop sends reqs from nproc clients, each sending its next request
// when the previous one is answered, and returns the jobs answered
// correctly and the wall time. A positive limit stops the loop early, so a
// badly regressed build still finishes in bounded time.
func (g *loadgen) closedLoop(reqs []request, limit time.Duration) (int, time.Duration) {
	var next, jobs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				if limit > 0 && time.Since(start) > limit {
					return
				}
				if s := g.send(&reqs[i]); s.ok {
					jobs.Add(int64(len(reqs[i].jobs)))
				}
			}
		}()
	}
	wg.Wait()
	return int(jobs.Load()), time.Since(start)
}

// oneClient sends reqs from a single client, each when the previous one
// is answered, and returns one sample per request.
func (g *loadgen) oneClient(reqs []request) []sample {
	samples := make([]sample, len(reqs))
	for i := range reqs {
		samples[i] = g.send(&reqs[i])
	}
	return samples
}

// check compares one response with the oracle. failed reports a request
// the cluster did not answer: a non-2xx status or an error slot. wrong
// reports an answer that differs from the library's.
func (c *corpus) check(r *request, status int, body []byte) (failed bool, wrong error) {
	if status != http.StatusOK {
		return true, nil
	}
	if c.path == "/v1/solve" {
		return c.checkSlot(r, 0, body)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return false, fmt.Errorf("undecodable batch response: %v", err)
	}
	if len(out.Results) != len(r.jobs) {
		return false, fmt.Errorf("batch of %d jobs answered %d results", len(r.jobs), len(out.Results))
	}
	for i, slot := range out.Results {
		f, w := c.checkSlot(r, i, slot)
		failed = failed || f
		if w != nil {
			return failed, w
		}
	}
	return failed, nil
}

func (c *corpus) checkSlot(r *request, i int, slot []byte) (failed bool, wrong error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, slot); err != nil {
		return false, fmt.Errorf("undecodable result slot: %v", err)
	}
	want := c.jobs[r.jobs[i]].want
	if bytes.Equal(buf.Bytes(), want) {
		return false, nil
	}
	var res jobspec.Result
	if err := json.Unmarshal(slot, &res); err == nil && res.Error != "" {
		return true, nil
	}
	return false, fmt.Errorf("slot %d answered %s, the library answers %s, for job %s", i, buf.Bytes(), want, c.jobDoc(r, i))
}

// jobDoc renders slot i's job of a request as a one-job document.
func (c *corpus) jobDoc(r *request, i int) []byte {
	if c.path == "/v1/solve" {
		return r.body
	}
	f, err := jobspec.DecodeFile(bytes.NewReader(r.body))
	if err != nil {
		return r.body
	}
	f.Jobs = f.Jobs[i : i+1]
	doc, _ := json.Marshal(f) // re-encoding a decoded document cannot fail
	return doc
}
