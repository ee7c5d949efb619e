// Command bench is the repository's end-to-end benchmark. It stands up
// the shipping cluster in-process (one pipegateway over three pipeserved
// replicas on loopback listeners), drives one workload at it from a single
// generator, checks every answer against the library, and prints every
// metric by name with its unit and sample count. The last line of its
// output is a JSON summary.
//
//	bash bench/run.sh --workload hot-solve --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run and writes its spans. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds of the run at the reference speed")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -workload (one of "+strings.Join(names, ", ")+"), -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
	}
	built := time.Now()
	c, err := w.corpus(*seed, w.sizes(*seconds, *trace == 1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "note: %s seed %d: inputs and their library answers took %.2fs\n",
		w.name, *seed, time.Since(built).Seconds())
	var res *result
	if *trace == 1 {
		res, err = runTraced(c, *spans)
	} else {
		res, err = runUntraced(w, c, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

const (
	// closedShare is the share of --seconds the closed-loop list takes at
	// the reference speed; the single-client list takes the rest.
	closedShare = 0.5
	// setupRuns is how many times an end-to-end run sets the cluster up;
	// setup_s is their median and the last one is measured.
	setupRuns = 9
	// rounds is how many alternating closed-loop and single-client parts a
	// run measures. capacity_jobs_s is the median of the closed-loop parts'
	// rates.
	rounds = 10
)

// jobsPer is the number of jobs in each of the workload's requests.
func (w workloadSpec) jobsPer() int {
	if w.path == "/v1/solve" {
		return 1
	}
	return batchJobs
}

func count(perSecond, seconds float64) int {
	return max(1, int(math.Ceil(perSecond*seconds)))
}

// sizes are the lists a run of about seconds sends, at the reference
// speed. An end-to-end run gives closedShare of it to the closed loop and
// the rest to the single client; a traced run sends its single-client list
// to two clusters, so the list takes half.
func (w workloadSpec) sizes(seconds float64, traced bool) listSizes {
	if traced {
		return listSizes{warmup: w.warmup, single: count(w.singleRate, seconds/2)}
	}
	closedSec := closedShare * seconds
	return listSizes{
		warmup: w.warmup,
		closed: count(w.refCapacity/float64(w.jobsPer()), closedSec),
		single: count(w.singleRate, seconds-closedSec),
	}
}

// setup starts a cluster and replays the warmup list through it.
func setup(g *loadgen, t *tracer) (*cluster, error) {
	cl, err := startCluster(g.client, t)
	if err != nil {
		return nil, err
	}
	g.url = cl.url
	g.closedLoop(g.c.warmup, 0)
	return cl, nil
}

// liveHeap is the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools held
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// speedTrack samples the host's speed between the timed phases of a run.
type speedTrack struct {
	hs   *hostSpeed
	last float64
	all  []float64
}

func newSpeedTrack(hs *hostSpeed) (*speedTrack, error) {
	st := &speedTrack{hs: hs}
	_, err := st.next()
	return st, err
}

// next samples the speed and returns the mean of this sample and the one
// before: the host's speed over the phase run between them.
func (st *speedTrack) next() (float64, error) {
	s, err := st.hs.sample()
	if err != nil {
		return 0, err
	}
	mean := (st.last + s) / 2
	st.last = s
	st.all = append(st.all, s)
	return mean, nil
}

// runUntraced is the end-to-end run: setupRuns timed setups, then rounds
// of closed-loop and single-client parts on the last cluster. Every timing
// is scaled to the reference host speed by the host-speed samples taken
// before and after its phase.
func runUntraced(w workloadSpec, c *corpus, seconds float64) (*result, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	g := &loadgen{client: client, c: c}
	res := &result{}

	hs := newHostSpeed(seconds)
	defer hs.close()
	st, err := newSpeedTrack(hs)
	if err != nil {
		return nil, err
	}
	var setups, rawSetups []float64
	var base uint64
	var cl *cluster
	for k := 0; k < setupRuns; k++ {
		if cl != nil {
			cl.close()
			client.CloseIdleConnections()
		}
		base = liveHeap()
		start := time.Now()
		if cl, err = setup(g, nil); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		speed, err := st.next()
		if err != nil {
			cl.close()
			return nil, err
		}
		setups = append(setups, d*speed)
		rawSetups = append(rawSetups, d)
	}
	defer cl.close()
	res.add("setup_s", median(setups), "s", len(setups))

	// The phases alternate in rounds, so both see the same stretches of a
	// shared host. Each closed-loop part is fixed work; the limit only stops
	// a build more than four times slower than the reference before the
	// run's time budget is gone.
	limit := time.Duration(4 * closedShare * seconds / rounds * float64(time.Second))
	var jobs int
	var wall time.Duration
	var samples []sample
	var rawLat []float64
	rates := make([]float64, rounds)
	rawRates := make([]float64, rounds)
	for k := range rates {
		n, d := g.closedLoop(c.closed[k*len(c.closed)/rounds:(k+1)*len(c.closed)/rounds], limit)
		speed, err := st.next()
		if err != nil {
			return nil, err
		}
		rawRates[k] = float64(n) / d.Seconds()
		rates[k] = rawRates[k] / speed
		jobs, wall = jobs+n, wall+d

		part := g.oneClient(c.single[k*len(c.single)/rounds : (k+1)*len(c.single)/rounds])
		if speed, err = st.next(); err != nil {
			return nil, err
		}
		for i := range part {
			rawLat = append(rawLat, ms(part[i].latency))
			part[i].latency = time.Duration(float64(part[i].latency) * speed)
		}
		samples = append(samples, part...)
	}
	res.add("capacity_jobs_s", median(rates), "jobs/s", jobs)
	latencyMetrics(res, w, samples)
	res.add("heap_mb", (float64(liveHeap())-float64(base))/(1<<20), "MiB", 1)

	res.Attempted, res.Failed, res.Wrong = int(g.attempted.Load()), int(g.failed.Load()), g.wrong
	res.notef("host speed %.3f of the reference (median of %d samples); unscaled setup_s %.4g, capacity_jobs_s %.4g, p50_ms %.4g, p95_ms %.4g",
		median(st.all), len(st.all), median(rawSetups), median(rawRates), quantile(rawLat, 0.5), quantile(rawLat, 0.95))
	res.notef("%d warmup, %d closed-loop and %d single-client requests; closed loop took %.2fs",
		len(c.warmup), len(c.closed), len(c.single), wall.Seconds())
	return res, nil
}

// latencyMetrics reports the single-client latency metrics.
func latencyMetrics(res *result, w workloadSpec, samples []sample) {
	var lat []float64
	inLimit := 0
	for _, s := range samples {
		if s.ok {
			lat = append(lat, ms(s.latency))
			if ms(s.latency) <= w.limitMs {
				inLimit++
			}
		}
	}
	res.add("p50_ms", quantile(lat, 0.5), "ms", len(lat))
	res.add("p95_ms", quantile(lat, 0.95), "ms", len(lat))
	res.add("slo_frac", frac(inLimit, len(samples)), "fraction", len(samples))
	res.notef("p95 rests on %d samples beyond it; slo limit %gms",
		len(lat)-int(math.Ceil(0.95*float64(len(lat)))), w.limitMs)
}

// runTraced is the per-layer run. It sets up two clusters after the same
// warmup, one untraced and one traced, and has one client send both the
// same list in alternating rounds, so that host drift falls on both alike
// and their p50s give the tracing overhead. Then it replays the traced
// stream through the layers inside a replica.
func runTraced(c *corpus, spansPath string) (*result, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	res := &result{}

	gu := &loadgen{client: client, c: c}
	cu, err := setup(gu, nil)
	if err != nil {
		return nil, err
	}
	defer cu.close()
	t := newTracer()
	gt := &loadgen{client: client, c: c} // warms up untraced, then traces
	ct, err := setup(gt, t)
	if err != nil {
		return nil, err
	}
	defer ct.close()
	gt.t = t
	before, err := ct.stats(client)
	if err != nil {
		return nil, err
	}
	// The warmup was routed too; only the traced phase's calls count.
	routeCalls, routeNanos := t.routeCalls.Load(), t.routeNanos.Load()
	var untraced, traced []sample
	for k := 0; k < rounds; k++ {
		part := c.single[k*len(c.single)/rounds : (k+1)*len(c.single)/rounds]
		if k%2 == 0 {
			untraced = append(untraced, gu.oneClient(part)...)
			traced = append(traced, gt.oneClient(part)...)
		} else {
			traced = append(traced, gt.oneClient(part)...)
			untraced = append(untraced, gu.oneClient(part)...)
		}
	}
	routeCalls, routeNanos = t.routeCalls.Load()-routeCalls, t.routeNanos.Load()-routeNanos
	after, err := ct.stats(client)
	if err != nil {
		return nil, err
	}

	spans := t.snapshot()
	tree := buildTree(spans)
	if err := tree.check(); err != nil {
		return nil, fmt.Errorf("malformed span tree: %w", err)
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	jobs := 0
	for _, r := range c.single {
		jobs += len(r.jobs)
	}

	var connWait, tracedLat, untracedLat []float64
	for _, s := range traced {
		connWait = append(connWait, ms(s.connWait))
		if s.ok {
			tracedLat = append(tracedLat, ms(s.latency))
		}
	}
	for _, s := range untraced {
		if s.ok {
			untracedLat = append(untracedLat, ms(s.latency))
		}
	}
	res.add("loadgen.conn_wait_p50_ms", quantile(connWait, 0.5), "ms", len(connWait))
	spanMetrics(res, tree, t, routeCalls, routeNanos, jobs)
	statsMetrics(res, before, after, jobs)
	if err := replayLayers(res, c); err != nil {
		return nil, fmt.Errorf("replaying layers: %w", err)
	}
	res.add("trace.overhead_frac", quantile(tracedLat, 0.5)/quantile(untracedLat, 0.5)-1, "fraction", len(tracedLat))

	res.Attempted = int(gu.attempted.Load() + gt.attempted.Load())
	res.Failed = int(gu.failed.Load() + gt.failed.Load())
	res.Wrong = gu.wrong
	if res.Wrong == nil {
		res.Wrong = gt.wrong
	}
	res.notef("%d warmup and 2x%d single-client requests; %d spans written to %s",
		len(c.warmup), len(c.single), len(spans), spansPath)
	return res, nil
}
