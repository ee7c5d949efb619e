// Command pipebatch solves many mapping problems in one shot on the
// concurrent batch engine (repro.SolveBatch): it reads a JSON job file,
// fans the jobs across a bounded worker pool with duplicate-job
// memoization, and emits one JSON document with the per-job results (in
// input order) and the aggregate batch statistics.
//
// Usage:
//
//	pipebatch -in jobs.json [-workers 8] [-no-dedup]
//	pipebatch -in jobs.json -server http://host:8080 [-retries 5] [-retry-base 200ms] [-http-timeout 60s]
//
// The job file holds an optional default instance plus a list of jobs;
// each job may carry its own instance (overriding the default) and a
// request:
//
//	{
//	  "instance": { ... pipegen/pipemap instance schema ... },
//	  "jobs": [
//	    {"request": {"rule": "interval", "model": "overlap",
//	                 "objective": "energy", "periodBound": 2}},
//	    {"request": {"rule": "interval", "objective": "period"}},
//	    {"instance": { ... }, "request": {"objective": "latency",
//	                                      "latencyBounds": [3, 4]}}
//	  ]
//	}
//
// Request fields: rule (one-to-one | interval, default interval), model
// (overlap | no-overlap, default overlap), objective (period | latency |
// energy, default period), periodBound / latencyBound (global weighted
// thresholds expanded to per-application bounds as X / W_a),
// periodBounds / latencyBounds (explicit per-application arrays, which
// win over the global forms), energyBudget, seed, exactLimit, heurIters,
// heurRestarts.
//
// The output document mirrors the job order:
//
//	{
//	  "results": [
//	    {"value": 46, "method": "...", "optimal": true,
//	     "period": 2, "latency": 5, "energy": 46, "mapping": {...}},
//	    {"error": "core: no mapping satisfies the bounds"}
//	  ],
//	  "stats": {"jobs": 2, "cacheHits": 0, "errors": 1,
//	            "wallMs": 1.62, "methods": {"...": 1}}
//	}
//
// The document schemas live in internal/jobspec and are shared with the
// pipeserved HTTP service: a pipebatch job file can be POSTed verbatim to
// its /v1/batch endpoint. Non-finite result values are rendered as null.
//
// With -server, pipebatch does exactly that instead of solving locally:
// it POSTs the job file to <server>/v1/batch and prints the response.
// A shed response (429 or 503, the service's admission control or an
// open circuit breaker) is retried up to -retries times before giving up,
// on the gateway's schedule: the wait is the server's Retry-After header
// (both RFC 7231 forms, delta-seconds and HTTP-date) when it sent one,
// and a jittered exponential backoff otherwise; any other non-200 is a
// hard error.
// Transport failures, including a hung connection hitting the
// -http-timeout per-attempt deadline, retry on the same schedule: each
// attempt is bounded, so a wedged server can never stall the retry loop
// forever.
//
// pipebatch exits non-zero on malformed input; per-job solver failures are
// reported in the results array and do not abort the batch.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/gateway"
	"repro/internal/jobspec"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipebatch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebatch", flag.ContinueOnError)
	in := fs.String("in", "", "job file JSON (default: stdin)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	noDedup := fs.Bool("no-dedup", false, "disable duplicate-job memoization")
	serverURL := fs.String("server", "", "POST the job file to this pipeserved base URL instead of solving locally")
	retries := fs.Int("retries", 5, "retries after a shed (429/503) or transport failure in -server mode")
	retryBase := fs.Duration("retry-base", 200*time.Millisecond, "base delay of the jittered exponential backoff")
	httpTimeout := fs.Duration("http-timeout", gateway.DefaultClientTimeout,
		"per-attempt HTTP deadline in -server mode (default twice the server's own 30s request deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if *serverURL != "" {
		return runRemote(stdout, *serverURL, raw, *retries, *retryBase, gateway.NewClient(*httpTimeout))
	}
	doc, err := jobspec.DecodeFile(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	jobs, err := doc.BatchJobs()
	if err != nil {
		return err
	}

	results, stats := batch.Solve(jobs, batch.Options{Workers: *workers, NoDedup: *noDedup})
	out, err := jobspec.EncodeOutput(results, stats)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runRemote POSTs the raw job file to <base>/v1/batch and streams the
// response document to stdout, on the gateway's retry schedule
// (gateway.Retrier): shed responses (429/503) and transport failures —
// including attempts cut off by the client's own timeout — are retried,
// each after the server's Retry-After when it sent one and a jittered
// exponential backoff otherwise. The client comes from the shared gateway
// plumbing, so every attempt has a deadline.
func runRemote(stdout io.Writer, base string, body []byte, retries int, retryBase time.Duration, client *http.Client) error {
	// The jitter decorrelates clients retrying after a shared shed; it
	// has no bearing on solver results, which the server computes.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	r := gateway.Retrier{Client: client, Retries: retries, Base: retryBase, Jitter: rng.Int63n,
		OnRetry: func(attempt int, err error, wait time.Duration) {
			fmt.Fprintf(os.Stderr, "pipebatch: attempt %d: %v; retrying in %v\n", attempt+1, err, wait.Round(time.Millisecond))
		}}
	resp, out, err := r.Post(context.Background(), strings.TrimSuffix(base, "/")+"/v1/batch", body)
	switch {
	case err != nil && resp != nil:
		return fmt.Errorf("giving up after %d attempts: server shed the batch: %s: %s",
			max(retries, 0)+1, resp.Status, strings.TrimSpace(string(out)))
	case err != nil:
		return fmt.Errorf("posting batch: %w", err)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("server answered %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	_, err = stdout.Write(out)
	return err
}
