package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/report"
	"repro/internal/server"
)

// chaosEvents is the fault chain length per scenario; chaosExactCap caps
// the exact limit, and with it the branch-and-bound work budget past that
// limit, so a share of the re-solves lands on the degraded heuristic path
// (the experiment measures that rate, and fails when none does). It is
// the largest cap at which the 36-scenario run at seed 1 still degrades
// a re-solve: one of its re-solves needs 265 placements.
const (
	chaosEvents   = 3
	chaosExactCap = 264
)

// chaosOutcome is the replayable footprint of one re-solve step, used by
// the determinism pin (two runs of the same scenario chain must be
// bit-identical, including how they fail).
type chaosOutcome struct {
	Event    string
	Err      string
	Before   float64
	After    float64
	Degraded bool
	Diff     chaos.MigrationDiff
}

// Chaos runs the fault-tolerance experiment (experiment CHAOS): over a
// seeded corpus of generated scenarios, inject a deterministic chain of
// fault events into each instance, re-solve after every fault through
// the compiled-plan layer, and report the re-solve latency distribution,
// the degraded-solve rate, and the fault classification counts. A second
// pass over the first scenario pins determinism: the same seed must
// reproduce the exact event chain, values, and migration diffs. Finally
// a saturating burst against an in-process resilience-configured server
// measures the load-shedding rate (structured 429 + Retry-After).
// n <= 0 runs 36 scenarios.
func Chaos(w io.Writer, seed int64, n int) error {
	if n <= 0 {
		n = 36
	}
	corpus := gen.DefaultSpace().Corpus(seed, n)

	var (
		latencies  []float64 // ms per successful re-solve step
		resolved   int
		degraded   int
		inapplic   int
		infeasible int
		unresolved int
		failed     []string
	)
	for i := range corpus {
		outcomes, err := chaosChain(&corpus[i], &latencies)
		if err != nil {
			failed = append(failed, fmt.Sprintf("scenario %d (%s): %v", corpus[i].Index, corpus[i].Name, err))
			continue
		}
		for _, o := range outcomes {
			switch {
			case o.Err == "":
				resolved++
				if o.Degraded {
					degraded++
				}
			case strings.Contains(o.Err, chaos.ErrInapplicable.Error()):
				inapplic++
			case strings.Contains(o.Err, core.ErrUnresolved.Error()):
				unresolved++
			default:
				infeasible++
			}
		}
	}

	// Determinism pin: replay the first scenario's whole chain and demand
	// a bit-identical outcome sequence (events, values, diffs, errors).
	var sink []float64
	run1, err1 := chaosChain(&corpus[0], &sink)
	run2, err2 := chaosChain(&corpus[0], &sink)
	deterministic := fmt.Sprint(err1) == fmt.Sprint(err2) && reflect.DeepEqual(run1, run2)

	shedRate, okCount, shedCount, err := chaosShedBurst()
	if err != nil {
		return fmt.Errorf("experiments: chaos shed burst: %w", err)
	}

	p50, p99 := percentile(latencies, 0.50), percentile(latencies, 0.99)
	total := resolved + inapplic + infeasible + unresolved
	degradedRate := 0.0
	if resolved > 0 {
		degradedRate = float64(degraded) / float64(resolved)
	}

	tb := report.New(fmt.Sprintf("CHAOS - fault-tolerant re-solving, %d scenarios x %d faults (seed %d)", len(corpus), chaosEvents, seed),
		"metric", "value", "ok")
	tb.Addf("fault events injected", total, okMark(total > 0))
	tb.Addf("re-solves verified against simulator", resolved, okMark(resolved > 0))
	tb.Addf("re-solve latency p50 (ms)", p50, "-")
	tb.Addf("re-solve latency p99 (ms)", p99, "-")
	tb.Addf("degraded-solve rate", degradedRate, okMark(degraded > 0))
	tb.Addf("inapplicable events (classified, skipped)", inapplic, "-")
	tb.Addf("post-fault infeasible (classified)", infeasible, "-")
	tb.Addf("post-fault unresolved (classified)", unresolved, "-")
	tb.Addf("scenario failures (uncontained)", len(failed), okMark(len(failed) == 0))
	tb.Addf("same seed -> bit-identical chain", okMark(deterministic), okMark(deterministic))
	tb.Addf(fmt.Sprintf("shed burst: %d ok / %d shed (429)", okCount, shedCount), shedRate, okMark(okCount >= 1 && shedCount >= 1))
	tb.Render(w)
	fmt.Fprintln(w)

	if len(failed) > 0 {
		return fmt.Errorf("experiments: %d chaos scenarios failed, first: %s", len(failed), failed[0])
	}
	if !deterministic {
		return fmt.Errorf("experiments: chaos chain is not deterministic: run1 %+v != run2 %+v", run1, run2)
	}
	if degraded == 0 {
		return fmt.Errorf("experiments: none of %d re-solves degraded; the degraded path went unexercised", resolved)
	}
	if okCount < 1 || shedCount < 1 {
		return fmt.Errorf("experiments: shed burst saw %d successes and %d sheds; want at least one of each", okCount, shedCount)
	}
	return nil
}

// chaosChain injects a seeded chain of chaosEvents faults into one
// scenario, re-solving after each applicable fault. Inapplicable events,
// post-fault infeasibility and a post-fault instance the budgeted search
// found no mapping for (core.ErrUnresolved) are classified outcomes that
// end the chain, not errors; an error return means something the
// resilience layer must never allow (a panic is converted upstream, a
// simulator disagreement surfaces here). Successful steps append their
// wall-clock latency (ms) to *lat.
func chaosChain(sc *gen.Scenario, lat *[]float64) ([]chaosOutcome, error) {
	cur := sc.Inst
	q := plan.QueryOf(sc.Req)
	if q.ExactLimit == 0 || q.ExactLimit > chaosExactCap {
		q.ExactLimit = chaosExactCap
	}
	events, err := chaos.Generate(sc.Seed+int64(sc.Index), &cur, chaosEvents)
	if err != nil {
		return nil, fmt.Errorf("generating fault schedule: %w", err)
	}
	outcomes := make([]chaosOutcome, 0, len(events.Events))
	for _, ev := range events.Events {
		pl, err := plan.Compile(&cur, sc.Req.Rule, sc.Req.Model)
		if err != nil {
			return outcomes, fmt.Errorf("compile before %v: %w", ev, err)
		}
		start := time.Now()
		rr, err := chaos.Resolve(pl, q, ev)
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		o := chaosOutcome{Event: ev.String()}
		if err != nil {
			// Classified failures end the chain for this scenario: the
			// instance cannot absorb this fault (or is infeasible after
			// it), which the next event's premise depended on.
			o.Err = err.Error()
			outcomes = append(outcomes, o)
			if chaos.IsInapplicable(err) || errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrUnresolved) {
				break
			}
			return outcomes, err
		}
		*lat = append(*lat, elapsed)
		o.Before, o.After = rr.Before.Value, rr.After.Value
		o.Degraded = rr.After.Degraded
		o.Diff = rr.Diff
		outcomes = append(outcomes, o)
		cur = rr.Applied.Inst
	}
	return outcomes, nil
}

// chaosShedBurst saturates an in-process server configured with a tight
// admission gate (2 in flight, 2 queued) using a burst of slow solves,
// and returns the shed rate. Every response must be a success or a
// structured 429 with a Retry-After header.
func chaosShedBurst() (rate float64, okCount, shedCount int, err error) {
	srv := server.New(server.Config{MaxInFlight: 2, MaxQueue: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inst := pipeline.MotivatingExample()
	instJSON := new(strings.Builder)
	if err := pipeline.EncodeJSON(instJSON, &inst); err != nil {
		return 0, 0, 0, err
	}

	const burst = 32
	codes := make([]int, burst)
	retryAfter := make([]bool, burst)
	batch.Each(context.Background(), burst, burst, func(i int) {
		// Distinct seeds defeat the memo cache and a forced-heuristic
		// budget keeps each solve slow enough that the burst overlaps.
		body := fmt.Sprintf(`{"instance": %s, "request": {"objective": "period",
			"exactLimit": 1, "heurIters": 100000, "heurRestarts": 1, "seed": %d}}`, instJSON.String(), i+1)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		codes[i] = resp.StatusCode
		retryAfter[i] = resp.Header.Get("Retry-After") != ""
	}, nil)

	for i, c := range codes {
		switch c {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			if !retryAfter[i] {
				return 0, okCount, shedCount, fmt.Errorf("request %d shed without a Retry-After header", i)
			}
			shedCount++
		default:
			return 0, okCount, shedCount, fmt.Errorf("request %d: unexpected status %d", i, c)
		}
	}
	return float64(shedCount) / float64(burst), okCount, shedCount, nil
}

// percentile returns the pth (0..1) percentile of xs by nearest-rank, or
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}
