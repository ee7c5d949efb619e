package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/algo/exact"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestBudgetBeyondExactLimit checks the NP-hard cells past the exact limit
// on the service benchmark's generator sizes (up to 8 stages per
// application, 10 in total, 10 processors). A problem whose
// branch-and-bound search ends within core.ExactWork placements answers
// MethodExact, optimal, with the unbounded search's optimum bit for bit;
// one that runs out answers a degraded value no worse than the incumbent
// the budgeted search found, and never ErrUnresolved while it has one.
func TestBudgetBeyondExactLimit(t *testing.T) {
	space := gen.DefaultSpace()
	space.MaxStagesPerApp, space.MaxTotalStages, space.MaxProcs = 8, 10, 10
	solved, degraded, withIncumbent := 0, 0, 0
	for i := 0; i < 1500; i++ {
		sc := space.Sample(11, i)
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		opt, goal := core.ExactProblem(sc.Req)
		if _, err := exact.CountMappings(&sc.Inst, exact.Options{Rule: sc.Req.Rule, Modes: exact.AllModes, Limit: 2_000_000}); err == nil {
			continue // within the exact limit
		}
		res, err := core.Solve(&sc.Inst, sc.Req)
		if err == nil && res.Method != core.MethodExact && res.Method != core.MethodHeuristic {
			continue // a polynomial cell
		}
		opt.Budget = core.ExactWork
		sol, berr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
		switch {
		case berr == nil:
			solved++
			opt.Budget = 0
			full, ferr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
			//lint:allow floatcmp the budgeted answer must be the unbounded optimum bit for bit
			if err != nil || ferr != nil || res.Method != core.MethodExact || !res.Optimal || res.Degraded || res.Value != full.Value {
				t.Fatalf("%s (index %d): answered %q optimal %v value %v (%v); unbounded search %v (%v)",
					sc.Name, i, res.Method, res.Optimal, res.Value, err, full.Value, ferr)
			}
		case errors.Is(berr, exact.ErrSearchSpace):
			if len(sol.Mapping.Apps) > 0 {
				withIncumbent++
				if err != nil || !fmath.LE(res.Value, sol.Value) {
					t.Fatalf("%s (index %d): answered %v (%v), worse than the incumbent %v", sc.Name, i, res.Value, err, sol.Value)
				}
			}
			if err == nil {
				degraded++
				if !res.Degraded || res.Method != core.MethodHeuristic || res.Optimal {
					t.Fatalf("%s (index %d): budget ran out but the answer is %q, degraded %v", sc.Name, i, res.Method, res.Degraded)
				}
			} else if !errors.Is(err, core.ErrUnresolved) {
				t.Fatalf("%s (index %d): budget ran out and the answer is %v", sc.Name, i, err)
			}
		case !errors.Is(err, core.ErrInfeasible):
			t.Fatalf("%s (index %d): the budgeted search proves infeasibility, the answer is %v", sc.Name, i, err)
		}
	}
	if solved == 0 || degraded == 0 || withIncumbent == 0 {
		t.Fatalf("draws exercise too little: %d solved within the budget, %d degraded, %d with an incumbent", solved, degraded, withIncumbent)
	}
	t.Logf("%d solved within the budget, %d degraded, %d with an incumbent", solved, degraded, withIncumbent)
}

// TestUnresolvedIsNotInfeasible checks the heuristic never answers
// ErrInfeasible: an infeasible NP-hard problem answers ErrUnresolved when
// ExactLimit 1 leaves the search no budget, and ErrInfeasible, a proof,
// when the search runs to the end.
func TestUnresolvedIsNotInfeasible(t *testing.T) {
	inst := pipeline.MotivatingExample()
	req := core.Request{Rule: mapping.Interval, Objective: core.Energy, PeriodBounds: []float64{0.01, 0.01}}
	if _, err := core.Solve(&inst, req); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("full search: %v, want ErrInfeasible", err)
	}
	req.ExactLimit = 1
	_, err := core.Solve(&inst, req)
	if !errors.Is(err, core.ErrUnresolved) || errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("no budget: %v, want ErrUnresolved only", err)
	}
}

// beyondJobs returns the first 64 NP-hard jobs past the exact limit among
// seed 11's draws at the service benchmark's generator sizes: the path
// where the budgeted branch-and-bound search runs first and the annealer
// takes over, from the search's incumbent, when it runs out.
func beyondJobs(tb testing.TB) []gen.Scenario {
	tb.Helper()
	space := gen.DefaultSpace()
	space.MaxStagesPerApp, space.MaxTotalStages, space.MaxProcs = 8, 10, 10
	var jobs []gen.Scenario
	for i := 0; len(jobs) < 64; i++ {
		sc := space.Sample(11, i)
		if sc.Degenerate == gen.DegenProcStarved {
			continue
		}
		if _, err := exact.CountMappings(&sc.Inst, exact.Options{Rule: sc.Req.Rule, Modes: exact.AllModes, Limit: 2_000_000}); err == nil {
			continue
		}
		if res, err := core.Solve(&sc.Inst, sc.Req); err == nil && res.Method != core.MethodExact && res.Method != core.MethodHeuristic {
			continue
		}
		jobs = append(jobs, sc)
	}
	return jobs
}

// beyondPinDigest is the SHA-256 of beyondJobs' answers, recorded when the
// annealer started from the budgeted search's incumbent with one restart.
const beyondPinDigest = "29eac11997c37779d45af7eb47d87c5a025d225a9765a41dc3be4e2f8d5ec760"

// TestBeyondAnswersPinned hashes the answers to beyondJobs (method, value,
// lower bound, the degraded flag and the mapping; an error's text for the
// jobs that answer one) and compares them with a digest recorded from an
// earlier build, so a change to the degraded path's answers, not only to
// its speed, fails here. amd64 only, like the forced-heuristic pins: the
// annealer's acceptance test calls math.Exp.
func TestBeyondAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s rounds math.Exp/Pow differently", runtime.GOARCH)
	}
	h := sha256.New()
	degraded := 0
	for _, sc := range beyondJobs(t) {
		res, err := core.Solve(&sc.Inst, sc.Req)
		if err != nil {
			if !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, core.ErrUnresolved) {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			h.Write([]byte(err.Error()))
			continue
		}
		if res.Degraded {
			degraded++
		}
		var buf [8]byte
		for _, f := range []float64{res.Value, res.LowerBound} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		js, err := json.Marshal(&res.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %v %s", res.Method, res.Degraded, js)
	}
	if degraded == 0 {
		t.Fatal("no job took the degraded path")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != beyondPinDigest {
		t.Errorf("digest of the answers (%d degraded) = %s, want %s", degraded, got, beyondPinDigest)
	}
}

// TestDegradedNeverAboveIncumbent checks the better-of-two rule past the
// exact limit, with the default restarts and with explicit ones (restart 0
// from the incumbent, the rest cold): a degraded answer's value is never
// above the incumbent of the budgeted search that ran out, and a search
// that left one never answers ErrUnresolved.
func TestDegradedNeverAboveIncumbent(t *testing.T) {
	checked := 0
	for _, sc := range beyondJobs(t) {
		opt, goal := core.ExactProblem(sc.Req)
		opt.Budget = core.ExactWork
		sol, berr := exact.Minimize(context.Background(), &sc.Inst, opt, goal)
		if !errors.Is(berr, exact.ErrSearchSpace) || len(sol.Mapping.Apps) == 0 {
			continue
		}
		for _, restarts := range []int{0, 3} {
			req := sc.Req
			req.HeurIters, req.HeurRestarts = 400, restarts
			res, err := core.Solve(&sc.Inst, req)
			if err != nil || !res.Degraded || !fmath.LE(res.Value, sol.Value) {
				t.Fatalf("%s, %d restarts: answered %v degraded %v (%v), incumbent %v", sc.Name, restarts, res.Value, res.Degraded, err, sol.Value)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no job left an incumbent")
	}
}

// BenchmarkSolveBeyondExactLimit times Solve on beyondJobs. One op
// answers every job once.
func BenchmarkSolveBeyondExactLimit(b *testing.B) {
	jobs := beyondJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range jobs {
			_, err := core.Solve(&jobs[k].Inst, jobs[k].Req)
			if err != nil && !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, core.ErrUnresolved) {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(jobs)), "us/job")
}

// TestSolveBudgetStops pins what a stopped solve answers. Under a context
// the solve budget has already ended, an NP-hard cell answers the
// annealer's start, Preempted and Degraded with a lower bound, never
// below the optimum; a problem whose start breaks its bounds answers
// ErrSolveBudget, a timeout, where the full search proves ErrInfeasible.
// A context ended otherwise answers its own error. A polynomial cell is
// never stopped and answers in full.
func TestSolveBudgetStops(t *testing.T) {
	inst := pipeline.MotivatingExample()
	cls := inst.Platform.Classify()
	spent, cancel := context.WithDeadlineCause(context.Background(), time.Unix(0, 0), core.ErrSolveBudget)
	defer cancel()
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()

	hard := core.Request{Rule: mapping.Interval, Objective: core.Period} // NP-hard on Figure 1
	full, err := core.Solve(&inst, hard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolvePrepared(spent, &inst, cls, hard)
	if err != nil || !res.Preempted || !res.Degraded || res.LowerBound <= 0 || res.LowerBound > res.Value || res.Value < full.Value {
		t.Fatalf("spent budget: %+v, %v; want Preempted and Degraded with 0 < lower bound <= value, never below the optimum %g", res, err, full.Value)
	}
	if _, err := core.SolvePrepared(gone, &inst, cls, hard); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v, want context.Canceled", err)
	}

	tight := hard
	tight.PeriodBounds = core.UniformBounds(&inst, 0.5)
	if _, err := core.Solve(&inst, tight); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("unbudgeted tight bounds: %v, want ErrInfeasible", err)
	}
	if _, err := core.SolvePrepared(spent, &inst, cls, tight); !errors.Is(err, core.ErrSolveBudget) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spent budget without a mapping: %v, want ErrSolveBudget, a deadline error", err)
	}

	poly := core.Request{Rule: mapping.Interval, Objective: core.Latency} // Theorem 12
	want, err := core.Solve(&inst, poly)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{spent, gone} {
		if got, err := core.SolvePrepared(ctx, &inst, cls, poly); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("polynomial cell under an ended context: %+v, %v; want %+v", got, err, want)
		}
	}
}
