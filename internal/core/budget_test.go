package core_test

import (
	"cmp"
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

// TestClamp pins core.Request.Clamp on a table, then checks its rules
// over a grid of ceilings and requests: a ceiling of 0 is the identity;
// the effective exact limit and the annealing steps of every restart
// together are at most the ceiling; no effort is ever raised, HeurIters is
// never left 0 by a clamp (0 means 4000) and no other field moves; a
// request within the ceiling is unchanged, and clamping is idempotent.
func TestClamp(t *testing.T) {
	for _, c := range []struct {
		work     int64
		req, out core.Request
	}{
		{0, core.Request{HeurIters: 1_000_000, HeurRestarts: 16}, core.Request{HeurIters: 1_000_000, HeurRestarts: 16}},
		{10_000, core.Request{}, core.Request{ExactLimit: 10_000, HeurIters: 3333}},
		{12_000, core.Request{}, core.Request{ExactLimit: 12_000}},
		{2, core.Request{}, core.Request{ExactLimit: 2, HeurIters: 1, HeurRestarts: 2}},
		{1, core.Request{HeurRestarts: 16}, core.Request{ExactLimit: 1, HeurIters: 1, HeurRestarts: 1}},
		{50, core.Request{ExactLimit: 5, HeurIters: 10, HeurRestarts: 2}, core.Request{ExactLimit: 5, HeurIters: 10, HeurRestarts: 2}},
		{50, core.Request{HeurIters: 1_000_000, HeurRestarts: 4}, core.Request{ExactLimit: 50, HeurIters: 12, HeurRestarts: 4}},
		{1 << 40, core.Request{}, core.Request{}},
	} {
		if got := c.req.Clamp(c.work); !reflect.DeepEqual(got, c.out) {
			t.Errorf("%+v.Clamp(%d) = %+v, want %+v", c.req, c.work, got, c.out)
		}
	}

	limit := func(r core.Request) int64 { return cmp.Or(r.ExactLimit, 2_000_000) }
	iters := func(r core.Request) int64 { return int64(cmp.Or(r.HeurIters, 4000)) }
	restarts := func(r core.Request) int64 { return int64(cmp.Or(r.HeurRestarts, 3)) }
	base := core.Request{Rule: mapping.Interval, Objective: core.Energy, PeriodBounds: []float64{2, 3}, EnergyBudget: 9, Seed: 4}
	for _, work := range []int64{0, 1, 2, 3, 5, 100, 3999, 4000, 12_000, 2_000_000, math.MaxInt64} {
		for _, effort := range [][3]int64{{0, 0, 0}, {1, 1, 1}, {7, 0, 16}, {50_000, 1_000_000, 0}, {20_000_000, 1_000_000, 16}, {3, 5, 2}} {
			req := base
			req.ExactLimit, req.HeurIters, req.HeurRestarts = effort[0], int(effort[1]), int(effort[2])
			got := req.Clamp(work)
			if work == 0 {
				if !reflect.DeepEqual(got, req) {
					t.Errorf("ceiling 0 changed %+v to %+v", req, got)
				}
				continue
			}
			steps := iters(got) * restarts(got)
			switch {
			case limit(got) > work || steps > work:
				t.Errorf("%+v.Clamp(%d): exact limit %d, %d annealing steps", req, work, limit(got), steps)
			case limit(got) > limit(req) || iters(got) > iters(req) || restarts(got) > restarts(req):
				t.Errorf("%+v.Clamp(%d) = %+v raised an effort", req, work, got)
			case got.HeurIters == 0 && req.HeurIters != 0:
				t.Errorf("%+v.Clamp(%d) left HeurIters 0", req, work)
			case !reflect.DeepEqual(got.PeriodBounds, req.PeriodBounds) || got.EnergyBudget != req.EnergyBudget ||
				got.Seed != req.Seed || got.Rule != req.Rule || got.Objective != req.Objective:
				t.Errorf("%+v.Clamp(%d) = %+v moved a field other than the effort", req, work, got)
			case limit(req) <= work && iters(req)*restarts(req) <= work && !reflect.DeepEqual(got, req):
				t.Errorf("%+v is within the ceiling %d, clamped to %+v", req, work, got)
			case !reflect.DeepEqual(got.Clamp(work), got):
				t.Errorf("clamping %+v again at %d gave %+v", got, work, got.Clamp(work))
			}
		}
	}
}

// TestClampPolynomialUnchanged checks that a ceiling never reaches a
// polynomial cell: over the generator's draws, a job a theorem algorithm
// answers gets core.Solve's result, bit for bit, under every ceiling.
func TestClampPolynomialUnchanged(t *testing.T) {
	space := gen.DefaultSpace()
	checked := 0
	for i := 0; i < 300; i++ {
		sc := space.Sample(5, i)
		want, err := core.Solve(&sc.Inst, sc.Req)
		if err != nil || want.Method == core.MethodExact || want.Method == core.MethodHeuristic {
			continue
		}
		checked++
		for _, work := range []int64{1, 3, 1000} {
			got, err := core.Solve(&sc.Inst, sc.Req.Clamp(work))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (index %d) under ceiling %d: %+v, %v; core.Solve %+v", sc.Name, i, work, got, err, want)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d draws answered by a polynomial cell", checked)
	}
}
