// Command pipegateway fronts a cluster of pipeserved replicas (see
// internal/gateway): it routes each job by a hash of its instance and
// request bytes over a consistent-hash ring so every replica's memo and
// plan caches stay hot for a stable slice of the jobs, fans /v1/batch
// sub-batches out concurrently, and reassembles the results in input
// order — bit-identical to a single replica answering the whole batch.
//
//	pipegateway -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//
//	POST /v1/batch     fan out sub-batches, reassemble in input order
//	POST /v1/solve     route by the job's bytes, forward verbatim
//	POST /v1/pareto    route by document hash (plans stay warm per replica)
//	POST /v1/simulate  route by document hash
//	POST /v1/resolve   route by document hash
//	GET  /healthz      gateway liveness
//	GET  /readyz       200 while >= 1 replica is healthy
//	GET  /stats        gateway counters + per-replica and merged stats
//
// Flags:
//
//	-addr            listen address (default :8081)
//	-replicas        comma-separated replica base URLs (required)
//	-vnodes          virtual points per replica on the hash ring
//	-retries         retry attempts per upstream request beyond the first
//	-retry-base      base of the jittered exponential retry backoff
//	-http-timeout    per-attempt upstream HTTP timeout; the default (60s)
//	                 is twice pipeserved's default request deadline, so a
//	                 slow-but-alive reply gets through while a hung
//	                 connection cannot stall the gateway forever
//	-probe-interval  period of the /readyz health sweep over the replicas
//	-max-body        request body cap in bytes (0 = 8 MiB default,
//	                 negative = unlimited; the same rule as pipeserved)
//
// Replicas that fail probes or requests are taken out of the ring and
// their keys served by the ring successors; probes bring a recovered
// replica back automatically. pipegateway drains on SIGINT/SIGTERM the
// same way pipeserved does.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pipegateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pipegateway", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	replicas := fs.String("replicas", "", "comma-separated pipeserved base URLs (required)")
	vnodes := fs.Int("vnodes", gateway.DefaultVirtualNodes, "virtual points per replica on the hash ring")
	retries := fs.Int("retries", gateway.DefaultRetries, "upstream retry attempts beyond the first (negative = none)")
	retryBase := fs.Duration("retry-base", gateway.DefaultRetryBase, "base of the jittered retry backoff")
	httpTimeout := fs.Duration("http-timeout", gateway.DefaultClientTimeout, "per-attempt upstream HTTP timeout")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "period of the replica /readyz health sweep")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes (0 = 8 MiB default, negative = unlimited)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return errors.New("no replicas: pass -replicas http://host:port[,http://host:port...]")
	}

	logger := log.New(os.Stderr, "pipegateway: ", log.LstdFlags)
	gw, err := gateway.New(gateway.Config{
		Replicas:  urls,
		Client:    gateway.NewClient(*httpTimeout),
		Router:    gateway.NewRing(len(urls), *vnodes),
		Retries:   *retries,
		RetryBase: *retryBase,
		MaxBody:   *maxBody,
		Logger:    logger,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.StartProbes(ctx, *probeInterval)

	httpSrv := &http.Server{Addr: *addr, Handler: gw}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s, routing %d replicas (vnodes=%d retries=%d http-timeout=%v)",
			*addr, len(urls), *vnodes, *retries, *httpTimeout)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Printf("shutting down, draining in-flight requests (budget %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("bye")
	return nil
}
