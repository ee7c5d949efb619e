// Command pipeserved runs the solver as a long-running HTTP JSON service
// (see internal/server for the endpoints and document schemas):
//
//	pipeserved [-addr :8080] [-workers 0] [-cache-cap 65536] [-timeout 30s]
//
//	POST /v1/solve     one request         -> one result
//	POST /v1/batch     pipebatch job file  -> per-job results + stats
//	POST /v1/pareto    instance + rule     -> period/energy frontier
//	POST /v1/simulate  instance + mapping  -> measured vs analytic metrics
//	POST /v1/resolve   instance + request + fault event -> re-solve + diff
//	GET  /healthz      liveness probe
//	GET  /readyz       readiness probe (503 while draining)
//	GET  /stats        cache/method/in-flight/shed counters
//
// Flags:
//
//	-addr       listen address (default :8080)
//	-workers    solver worker pool per request (0 = GOMAXPROCS)
//	-cache-cap  entry cap of the shared memo cache (0 = unbounded,
//	            default 65536); the cache is an LRU that lives for the
//	            whole process, so repeated and overlapping requests are
//	            answered from memory
//	-timeout    per-request wall-clock budget (0 = none, default 30s);
//	            an expired budget stops the request's solver jobs,
//	            searches in flight included, and reports 504
//	-max-body   request body cap in bytes (0 = 8 MiB default, negative =
//	            unlimited); an oversized body is rejected with a
//	            structured 413 JSON error
//
// Resilience flags (see internal/server):
//
//	-max-in-flight      solver requests running concurrently (0 = no
//	                    admission control); a /v1/solve front-tier hit
//	                    takes no slot
//	-max-queue          solver requests allowed to wait for admission;
//	                    beyond it requests are shed with 429 + Retry-After
//	-solve-work         per-job ceiling on search effort, in steps (0 =
//	                    none): exact limit and annealing steps, all
//	                    restarts together; replicas behind one gateway
//	                    must share it, as its front tier keys by body
//	-breaker-threshold  consecutive 504s on one endpoint that trip its
//	                    circuit breaker (0 = breakers off; a request
//	                    that expired waiting for admission is no
//	                    overrun); an open breaker sheds every request
//	                    on its endpoint
//	-breaker-cooldown   how long a tripped breaker sheds before probing
//
// A quick session against the Section 2 instance:
//
//	pipegen -preset fig1 > fig1.json
//	pipeserved -addr :8080 &
//	curl -s localhost:8080/v1/solve -d '{"instance": '"$(cat fig1.json)"',
//	  "request": {"objective": "energy", "periodBound": 2}}'
//	# -> {"value": 46, "method": "...", "period": 2, ...}
//	curl -s localhost:8080/stats
//
// pipeserved shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 so load balancers drain the instance, the listener closes,
// in-flight requests get a drain budget, and then the process exits.
// /healthz stays 200 throughout — restarting a draining process would
// kill exactly the requests the drain protects.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobspec"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pipeserved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pipeserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solver worker pool per request (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache-cap", 65536, "memo cache entry cap (0 = unbounded)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request budget (0 = none)")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes (0 = 8 MiB default, negative = unlimited)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	maxInFlight := fs.Int("max-in-flight", 0, "concurrent solver requests admitted (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "solver requests allowed to queue for admission before shedding")
	solveWork := fs.Int64("solve-work", 0, "per-job ceiling on search effort, in steps: exact limit and annealing steps (0 = none)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive 504s tripping an endpoint's circuit breaker (0 = off)")
	breakerCooldown := fs.Duration("breaker-cooldown", server.DefaultBreakerCooldown, "cooldown of a tripped circuit breaker")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "pipeserved: ", log.LstdFlags)
	srv := server.New(server.Config{
		Workers:          *workers,
		CacheCap:         *cacheCap,
		Timeout:          *timeout,
		MaxBody:          *maxBody,
		Logger:           logger,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		SolveWork:        *solveWork,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("listening on %s (workers=%d cache-cap=%d timeout=%v)",
		*addr, *workers, *cacheCap, *timeout)
	// /readyz answers 503 once draining starts; /healthz stays up.
	return jobspec.Serve(ctx, httpSrv, *drain, logger, func() { srv.SetDraining(true) })
}
