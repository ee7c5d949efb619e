package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/jobspec"
	"repro/internal/plan"
)

// spanMetrics derives the gateway, transport and server metrics from the
// traced phase's spans. jobs is the number of jobs the phase sent.
func spanMetrics(res *result, tree spanTree, t *tracer, routeCalls, routeNanos int64, jobs int) {
	var self, fanout, straggler, upstream, transportSelf, handler []float64
	for _, s := range tree.byID {
		switch s.Name {
		case spanGateway:
			self = append(self, float64(tree.selfTime(s)))
			var slowest int64
			kids := tree.children[s.ID]
			for _, k := range kids {
				slowest = max(slowest, k.dur())
			}
			fanout = append(fanout, float64(len(kids)))
			if s.dur() > 0 {
				straggler = append(straggler, float64(slowest)/float64(s.dur()))
			}
		case spanUpstream:
			upstream = append(upstream, float64(s.dur()))
			transportSelf = append(transportSelf, float64(tree.selfTime(s)))
		case spanServer:
			handler = append(handler, float64(s.dur()))
		}
	}
	const nsPerUs = 1e3
	res.add("gateway.self_p50_us", quantile(self, 0.5)/nsPerUs, "us", len(self))
	res.add("gateway.self_p95_us", quantile(self, 0.95)/nsPerUs, "us", len(self))
	res.add("gateway.route_ns", float64(routeNanos)/float64(max(routeCalls, 1)), "ns", int(routeCalls))
	res.add("gateway.route_calls", float64(routeCalls), "count", int(routeCalls))
	res.add("gateway.fanout_mean", mean(fanout), "count", len(fanout))
	res.add("gateway.straggler_share", mean(straggler), "fraction", len(straggler))
	res.add("gateway.upstream_p50_us", quantile(upstream, 0.5)/nsPerUs, "us", len(upstream))
	res.add("gateway.upstream_p95_us", quantile(upstream, 0.95)/nsPerUs, "us", len(upstream))
	res.add("transport.p50_us", quantile(transportSelf, 0.5)/nsPerUs, "us", len(transportSelf))
	res.add("transport.req_bytes_per_job", float64(t.reqBytes.Load())/float64(jobs), "bytes", jobs)
	res.add("transport.resp_bytes_per_job", float64(t.respBytes.Load())/float64(jobs), "bytes", jobs)
	res.add("server.handler_p50_us", quantile(handler, 0.5)/nsPerUs, "us", len(handler))
	res.add("server.handler_p95_us", quantile(handler, 0.95)/nsPerUs, "us", len(handler))
}

// statsMetrics derives the cache-tier metrics from the gateway's /stats
// before and after the traced phase.
func statsMetrics(res *result, before, after clusterStats, jobs int) {
	hits := after.Merged.CacheHits - before.Merged.CacheHits
	lookups := hits + after.Merged.CacheMisses - before.Merged.CacheMisses
	evictions := after.Merged.Evictions - before.Merged.Evictions
	planHits := after.Merged.PlanHits - before.Merged.PlanHits
	planMisses := after.Merged.PlanMisses - before.Merged.PlanMisses
	res.add("batch.hit_rate", frac(int(hits), int(lookups)), "fraction", int(lookups))
	res.add("batch.lookups", float64(lookups), "count", int(lookups))
	res.add("batch.evictions_per_kjob", 1000*frac(int(evictions), jobs), "1/kjob", jobs)
	res.add("batch.plan_hit_rate", frac(int(planHits), int(planHits+planMisses)), "fraction", int(planHits+planMisses))
	res.add("batch.plan_lookups", float64(planHits+planMisses), "count", int(planHits+planMisses))
	res.add("batch.plan_compiles", float64(planMisses), "count", int(planMisses))
	// Zero by design on every workload; a non-zero value explains failures.
	res.notef("gateway.retries %d, gateway.reroutes %d, gateway.shed %d, server.shed %d",
		after.Retried-before.Retried, after.Rerouted-before.Rerouted,
		after.Shed-before.Shed, after.Merged.Shed-before.Merged.Shed)
}

// replayCap bounds how many distinct jobs and plans the one-shot replays
// time, which bounds a traced run's replay time.
const replayCap = 2000

// replayLayers times the layers inside a replica, which cannot be wrapped
// from outside, by replaying the warmup list and the single-client list
// through the public calls each layer exposes: jobspec decode and encode,
// the batch engine on one result cache per replica routed by the gateway's
// ring, and one-shot plan and core solves of the distinct jobs. Only the
// single-client list's calls are timed for the per-job metrics; the warmup
// brings the caches to the state the cluster had.
func replayLayers(res *result, c *corpus) error {
	ring := gateway.NewRing(replicas, 0)
	caches := make([]*batch.Cache, replicas)
	for i := range caches {
		caches[i] = batch.NewCacheCap(cacheCap)
	}
	var decode, keys, solve, encode time.Duration
	var jobs, replayed, misses int
	seenJob := make(map[string]bool)
	var distinct []batch.Job
	for n, r := range append(append([]request(nil), c.warmup...), c.single...) {
		measured := n >= len(c.warmup)
		t0 := time.Now()
		bj, err := decodeJobs(c.path, r.body)
		if err != nil {
			return err
		}
		t1 := time.Now()
		groups := make([][]batch.Job, replicas)
		for _, j := range bj {
			k := batch.Key(j.Inst, j.Req)
			rep, _ := ring.Route(k, nil)
			groups[rep] = append(groups[rep], j)
			if !seenJob[k] && len(distinct) < replayCap {
				distinct = append(distinct, j)
			}
			seenJob[k] = true
		}
		t2 := time.Now()
		replayed += len(bj)
		for rep, g := range groups {
			if len(g) == 0 {
				continue
			}
			s0 := time.Now()
			results, stats := batch.SolveCtx(context.Background(), g, batch.Options{Cache: caches[rep]})
			s1 := time.Now()
			out, err := jobspec.EncodeOutput(results, stats)
			if err != nil {
				return err
			}
			if err := json.NewEncoder(io.Discard).Encode(out); err != nil {
				return err
			}
			s2 := time.Now()
			misses += stats.Jobs - stats.CacheHits
			if measured {
				solve += s1.Sub(s0)
				encode += s2.Sub(s1)
			}
		}
		if measured {
			decode += t1.Sub(t0)
			keys += t2.Sub(t1)
			jobs += len(bj)
		}
	}
	res.add("gateway.decode_us_per_job", us(decode+keys)/float64(jobs), "us", jobs)
	res.add("jobspec.decode_us_per_job", us(decode)/float64(jobs), "us", jobs)
	res.add("jobspec.encode_us_per_job", us(encode)/float64(jobs), "us", jobs)
	res.add("batch.solve_us_per_job", us(solve)/float64(jobs), "us", jobs)

	var compile, query []float64
	seenPlan := make(map[string]bool)
	for _, j := range distinct {
		pk := batch.PlanKey(j.Inst, j.Req.Rule, j.Req.Model)
		t0 := time.Now()
		pl, err := plan.Compile(j.Inst, j.Req.Rule, j.Req.Model)
		if err != nil {
			return err
		}
		if !seenPlan[pk] {
			seenPlan[pk] = true
			compile = append(compile, us(time.Since(t0)))
		}
		t1 := time.Now()
		pl.Solve(plan.QueryOf(j.Req))
		query = append(query, us(time.Since(t1)))
	}
	res.add("plan.compile_us_p50", quantile(compile, 0.5), "us", len(compile))
	res.add("plan.query_us_p50", quantile(query, 0.5), "us", len(query))

	var times []float64
	var total time.Duration
	byClass := make([]time.Duration, classes)
	for _, j := range distinct {
		t0 := time.Now()
		r, err := core.Solve(j.Inst, j.Req)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		times = append(times, us(d))
		total += d
		byClass[methodClass(r.Method)] += d
	}
	res.add("core.solve_us_p50", quantile(times, 0.5), "us", len(times))
	res.add("core.solve_us_p95", quantile(times, 0.95), "us", len(times))
	res.add("core.heur_share", float64(byClass[classHeuristic])/float64(total), "fraction", len(times))
	res.add("core.exact_share", float64(byClass[classExact])/float64(total), "fraction", len(times))
	res.add("core.poly_share", float64(byClass[classPoly])/float64(total), "fraction", len(times))
	res.add("core.ms_per_kjob", ms(total)/float64(len(times))*float64(misses)/float64(replayed)*1000, "ms/kjob", misses)
	return nil
}

// decodeJobs decodes a request body the way a replica's handler does.
func decodeJobs(path string, body []byte) ([]batch.Job, error) {
	var f jobspec.File
	if path == "/v1/solve" {
		var j jobspec.Job
		if err := json.Unmarshal(body, &j); err != nil {
			return nil, err
		}
		f = jobspec.File{Instance: j.Instance, Jobs: []jobspec.Job{{Request: j.Request}}}
	} else {
		var err error
		if f, err = jobspec.DecodeFile(bytes.NewReader(body)); err != nil {
			return nil, err
		}
	}
	return f.BatchJobs()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}
