package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/algo/exact"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/npc"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/workload"
)

// trialsPerCell is how many random instances validate each polynomial cell.
const trialsPerCell = 12

// cellCheck validates one complexity-table cell: generate random instances
// of the given platform class, run core.Solve, verify the dispatcher used
// the expected path, and (for optimality cells) compare against the
// exhaustive oracle.
type cellCheck struct {
	problem    string
	platform   string
	paperClaim string // "polynomial" or "NP-complete"
	// wantMethods lists acceptable dispatch methods.
	wantMethods []core.Method
	// gen draws an instance of the right class.
	gen func(rng *rand.Rand) pipeline.Instance
	// req builds the request (bounds may depend on the instance).
	req func(inst *pipeline.Instance, rng *rand.Rand) core.Request
	// dispatchOnly skips the comparison with the optimum (pure dispatch
	// checks).
	dispatchOnly bool
}

// optimum is the oracle of every cell: the branch-and-bound search of the
// request's exact statement, run to the end.
func optimum(inst *pipeline.Instance, req core.Request) (float64, error) {
	opt, goal := core.ExactProblem(req)
	sol, err := exact.Minimize(context.Background(), inst, opt, goal)
	return sol.Value, err
}

// run executes the cell check and returns a table row plus an error if the
// reproduction failed. The random draws happen sequentially up front so the
// rng stream is identical to a trial-by-trial run, then all trials are
// solved concurrently as one batch (under the caller's context, so a
// table run embedded in a larger process can be cancelled) and validated
// in order.
func (c *cellCheck) run(ctx context.Context, rng *rand.Rand) (cellResult, error) {
	insts := make([]pipeline.Instance, trialsPerCell)
	reqs := make([]core.Request, trialsPerCell)
	jobs := make([]batch.Job, trialsPerCell)
	for t := 0; t < trialsPerCell; t++ {
		insts[t] = c.gen(rng)
		reqs[t] = c.req(&insts[t], rng)
		jobs[t] = batch.Job{Inst: &insts[t], Req: reqs[t]}
	}
	solved, _ := batch.SolveCtx(ctx, jobs, batch.Options{})

	// The exhaustive oracle dominates a cell's wall time and is independent
	// per trial, so it fans out too; the validation below stays sequential
	// and order-preserving.
	type oracleOut struct {
		val float64
		err error
	}
	oracles := make([]oracleOut, trialsPerCell)
	if !c.dispatchOnly {
		// Every solved trial gets its oracle, cancelled or not, so none
		// is compared against a missing optimum.
		batch.Each(context.WithoutCancel(ctx), trialsPerCell, 0, func(t int) {
			if solved[t].Err == nil {
				v, err := optimum(&insts[t], reqs[t])
				oracles[t] = oracleOut{val: v, err: err}
			}
		}, nil)
	}

	matches, trials := 0, 0
	var firstErr error
	method := ""
	for t := 0; t < trialsPerCell; t++ {
		res, err := solved[t].Result, solved[t].Err
		if errors.Is(err, core.ErrInfeasible) {
			continue // bound draw was infeasible; not a failure
		}
		// Any other error fails the cell, core.ErrUnresolved included: an
		// answer that proves nothing cannot reproduce a paper cell.
		if err != nil {
			return cellResult{}, fmt.Errorf("experiments: %s [%s]: %w", c.problem, c.platform, err)
		}
		okMethod := false
		for _, m := range c.wantMethods {
			if res.Method == m {
				okMethod = true
				method = string(m)
			}
		}
		if !okMethod {
			return cellResult{}, fmt.Errorf("experiments: %s [%s]: dispatched to %q", c.problem, c.platform, res.Method)
		}
		if c.dispatchOnly {
			matches++
			trials++
			continue
		}
		want, err := oracles[t].val, oracles[t].err
		if errors.Is(err, exact.ErrInfeasible) {
			continue
		}
		if err != nil {
			return cellResult{}, fmt.Errorf("experiments: %s [%s] oracle: %w", c.problem, c.platform, err)
		}
		trials++
		if fmath.EQ(res.Value, want) {
			matches++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s [%s]: value %g, optimum %g", c.problem, c.platform, res.Value, want)
		}
	}
	optimal := fmt.Sprintf("%d/%d optimal", matches, trials)
	if c.dispatchOnly {
		optimal = fmt.Sprintf("%d dispatch checks", trials)
	}
	row := cellResult{
		problem:  c.problem,
		platform: c.platform,
		paper:    c.paperClaim,
		method:   method,
		optimal:  optimal,
	}
	if firstErr == nil && trials == 0 {
		firstErr = fmt.Errorf("experiments: %s [%s]: no feasible trials", c.problem, c.platform)
	}
	return row, firstErr
}

// Generators for the three platform shapes at oracle-friendly sizes.

func genFullyHom(modes int) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		return workload.MustInstance(rng, workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 4,
			Procs: 3 + rng.Intn(2), Modes: modes,
			Class: pipeline.FullyHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
		})
	}
}

func genCommHomOneToOne(modes int) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		cfg := workload.Config{
			// At least two stages so the platform has at least two
			// processors: a single-processor platform is degenerately
			// fully homogeneous, which would change the cell under test.
			Apps: 1 + rng.Intn(2), MinStages: 2, MaxStages: 3,
			Procs: 1, Modes: modes,
			Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 7,
		}
		inst := workload.MustInstance(rng, cfg)
		cfg.Procs = inst.TotalStages() + rng.Intn(2)
		inst.Platform = workload.Platform(rng, cfg)
		return inst
	}
}

func genCommHom(modes int) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		return workload.MustInstance(rng, workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 4,
			Procs: 3 + rng.Intn(2), Modes: modes,
			Class: pipeline.CommHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6,
		})
	}
}

// forceProcHet makes sure at least one processor's speed set differs, so a
// random communication homogeneous draw cannot degenerate into a fully
// homogeneous platform (which would change the cell being validated).
func forceProcHet(gen func(rng *rand.Rand) pipeline.Instance) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		inst := gen(rng)
		if inst.Platform.HomogeneousProcessors() {
			s := inst.Platform.Processors[0].Speeds
			s[len(s)-1]++ // keeps the set ascending and distinct
		}
		return inst
	}
}

func genFullyHet(modes int) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		return workload.MustInstance(rng, workload.Config{
			Apps: 1 + rng.Intn(2), MinStages: 1, MaxStages: 3,
			Procs: 3 + rng.Intn(2), Modes: modes,
			Class: pipeline.FullyHeterogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6, MaxBandwidth: 3,
		})
	}
}

func genFullyHetOneToOne(modes int) func(rng *rand.Rand) pipeline.Instance {
	return func(rng *rand.Rand) pipeline.Instance {
		cfg := workload.Config{
			Apps: 1, MinStages: 2, MaxStages: 3,
			Procs: 1, Modes: modes,
			Class: pipeline.FullyHeterogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 7, MaxBandwidth: 3,
		}
		inst := workload.MustInstance(rng, cfg)
		cfg.Procs = inst.TotalStages() + 1
		inst.Platform = workload.Platform(rng, cfg)
		return inst
	}
}

func monoReq(rule mapping.Rule, obj core.Criterion) func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
	return func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
		return core.Request{Rule: rule, Model: pipeline.Overlap, Objective: obj, HeurIters: 1200, HeurRestarts: 2}
	}
}

// Table1 validates every cell of the paper's Table 1 (mono-criterion
// complexity results).
func Table1(w io.Writer, seed int64) error {
	return Table1Ctx(context.Background(), w, seed)
}

// Table1Ctx is Table1 under a caller-supplied context, passed down to the
// per-cell batch solves.
func Table1Ctx(ctx context.Context, w io.Writer, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cells := []cellCheck{
		{
			problem: "period, one-to-one", platform: "com-hom (incl. het procs)", paperClaim: "polynomial (Thm 1)",
			wantMethods: []core.Method{core.MethodGreedyBinarySearch},
			gen:         genCommHomOneToOne(2), req: monoReq(mapping.OneToOne, core.Period),
		},
		{
			problem: "period, one-to-one", platform: "com-het", paperClaim: "NP-complete (Thm 2)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         genFullyHetOneToOne(1), req: monoReq(mapping.OneToOne, core.Period),
		},
		{
			problem: "period, interval", platform: "proc-hom", paperClaim: "polynomial (Thm 3)",
			wantMethods: []core.Method{core.MethodDynProgAlloc},
			gen:         genFullyHom(1), req: monoReq(mapping.Interval, core.Period),
		},
		{
			problem: "period, interval", platform: "special-app / proc-het", paperClaim: "NP-complete (Thm 5)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         forceProcHet(genCommHom(1)), req: monoReq(mapping.Interval, core.Period),
		},
		{
			problem: "latency, one-to-one", platform: "proc-hom", paperClaim: "polynomial (Thm 8)",
			wantMethods: []core.Method{core.MethodTrivial},
			gen: func(rng *rand.Rand) pipeline.Instance {
				cfg := workload.Config{Apps: 1, MinStages: 2, MaxStages: 3, Procs: 1, Modes: 2,
					Class: pipeline.FullyHomogeneous, MaxWork: 8, MaxData: 4, MaxSpeed: 6}
				inst := workload.MustInstance(rng, cfg)
				cfg.Procs = inst.TotalStages() + 1
				inst.Platform = workload.Platform(rng, cfg)
				return inst
			},
			req: monoReq(mapping.OneToOne, core.Latency),
		},
		{
			problem: "latency, one-to-one", platform: "special-app / proc-het", paperClaim: "NP-complete (Thm 9)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         forceProcHet(genCommHomOneToOne(1)), req: monoReq(mapping.OneToOne, core.Latency),
		},
		{
			problem: "latency, interval", platform: "com-hom (incl. het procs)", paperClaim: "polynomial (Thm 12)",
			wantMethods: []core.Method{core.MethodGreedyBinarySearch},
			gen:         genCommHom(2), req: monoReq(mapping.Interval, core.Latency),
		},
		{
			problem: "latency, interval", platform: "com-het", paperClaim: "NP-complete (Thm 13)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         genFullyHet(1), req: monoReq(mapping.Interval, core.Latency),
		},
	}
	return renderCells(ctx, w, "TABLE 1 - mono-criterion complexity map", cells, rng)
}

// Table2 validates every cell of the paper's Table 2 (multi-criteria
// complexity results with multi-modal processors).
func Table2(w io.Writer, seed int64) error {
	return Table2Ctx(context.Background(), w, seed)
}

// Table2Ctx is Table2 under a caller-supplied context, passed down to the
// per-cell batch solves.
func Table2Ctx(ctx context.Context, w io.Writer, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 1))
	// bounds draws per-application bounds on obj at slack times its
	// optimum over interval mappings, so problems are usually feasible but
	// non-trivial.
	bounds := func(inst *pipeline.Instance, obj core.Criterion, slack float64) []float64 {
		v, err := optimum(inst, core.Request{Rule: mapping.Interval, Objective: obj})
		if err != nil {
			return core.UniformBounds(inst, 1)
		}
		return core.UniformBounds(inst, v*slack)
	}
	cells := []cellCheck{
		{
			problem: "period/latency, interval", platform: "proc-hom", paperClaim: "polynomial (Thm 15-16)",
			wantMethods: []core.Method{core.MethodDynProgAlloc},
			gen:         genFullyHom(1),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Latency,
					PeriodBounds: bounds(inst, core.Period, 1.3)}
			},
		},
		{
			problem: "period/latency, interval", platform: "proc-het", paperClaim: "NP-complete (Thm 17)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         forceProcHet(genCommHom(1)),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Latency,
					PeriodBounds: bounds(inst, core.Period, 1.5), HeurIters: 1200, HeurRestarts: 2}
			},
		},
		{
			problem: "period/energy, one-to-one", platform: "com-hom (multi-modal)", paperClaim: "polynomial matching (Thm 19)",
			wantMethods: []core.Method{core.MethodMatching},
			gen:         genCommHomOneToOne(3),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				v, err := optimum(inst, core.Request{Rule: mapping.OneToOne, Objective: core.Period})
				if err != nil {
					return core.Request{Rule: mapping.OneToOne, Objective: core.Energy, PeriodBounds: core.UniformBounds(inst, 1)}
				}
				return core.Request{Rule: mapping.OneToOne, Objective: core.Energy,
					PeriodBounds: core.UniformBounds(inst, v*(1.2+rng.Float64()))}
			},
		},
		{
			problem: "period/energy, interval", platform: "proc-hom (multi-modal)", paperClaim: "polynomial DP (Thm 18+21)",
			wantMethods: []core.Method{core.MethodEnergyDP},
			gen:         genFullyHom(3),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Energy,
					PeriodBounds: bounds(inst, core.Period, 1.3+rng.Float64())}
			},
		},
		{
			problem: "period/energy, interval", platform: "proc-het", paperClaim: "NP-complete (Thm 22)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         forceProcHet(genCommHom(2)),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Energy,
					PeriodBounds: bounds(inst, core.Period, 1.5), HeurIters: 1200, HeurRestarts: 2}
			},
			dispatchOnly: true, // heuristic cells: dispatch check only
		},
		{
			problem: "tri-criteria, interval", platform: "proc-hom uni-modal", paperClaim: "polynomial (Thm 23-24)",
			wantMethods: []core.Method{core.MethodUniModalBudget},
			gen:         genFullyHom(1),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Energy,
					PeriodBounds:  bounds(inst, core.Period, 1.4),
					LatencyBounds: bounds(inst, core.Latency, 1.6)}
			},
		},
		{
			problem: "tri-criteria, interval", platform: "proc-hom multi-modal", paperClaim: "NP-hard (Thm 26-27)",
			wantMethods: []core.Method{core.MethodExact, core.MethodHeuristic},
			gen:         genFullyHom(3),
			req: func(inst *pipeline.Instance, rng *rand.Rand) core.Request {
				return core.Request{Rule: mapping.Interval, Objective: core.Energy,
					PeriodBounds:  bounds(inst, core.Period, 1.4),
					LatencyBounds: bounds(inst, core.Latency, 1.8),
					HeurIters:     1200, HeurRestarts: 2}
			},
		},
	}
	return renderCells(ctx, w, "TABLE 2 - multi-criteria complexity map (multi-modal processors)", cells, rng)
}

func renderCells(ctx context.Context, w io.Writer, title string, cells []cellCheck, rng *rand.Rand) error {
	tb := report.New(title, "problem", "platform", "paper", "our method", "validation")
	var firstErr error
	for i := range cells {
		row, err := cells[i].run(ctx, rng)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if row.problem != "" {
			tb.Add(row.problem, row.platform, row.paper, row.method, row.optimal)
		}
	}
	tb.Render(w)
	fmt.Fprintln(w)
	return firstErr
}

// NPC verifies the reduction gadget equivalences (experiments
// TAB1-P-INT-SPEC, TAB1-L-O2O and TAB2-PLE-MULTI's hardness side).
func NPC(w io.Writer) error {
	tb := report.New("NPC - reduction gadget equivalences",
		"reduction", "instance", "source solvable", "gadget feasible", "match")
	var firstErr error
	keep := func(name, inst string, solvable, feasible bool) {
		tb.Add(name, inst, okMark(solvable), okMark(feasible), okMark(solvable == feasible))
		if solvable != feasible && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s on %s: solvable=%v feasible=%v", name, inst, solvable, feasible)
		}
	}

	threes := []npc.ThreePartition{
		{B: 10, Items: []int{3, 3, 4, 2, 4, 4}},
		{B: 10, Items: []int{3, 3, 3, 3, 3, 5}},
		{B: 12, Items: []int{4, 4, 4, 4, 4, 4}},
	}
	for _, tp := range threes {
		inst := npc.EncodePeriodInterval(tp)
		period, err := optimum(&inst, core.Request{Rule: mapping.Interval, Objective: core.Period})
		if err != nil {
			return err
		}
		_, solvable := tp.SolveGroups()
		keep("3-partition -> period/interval (Thm 5)", fmt.Sprintf("B=%d %v", tp.B, tp.Items), solvable, fmath.LE(period, 1))

		latInst := npc.EncodeLatencyOneToOne(tp)
		latency, err := optimum(&latInst, core.Request{Rule: mapping.OneToOne, Objective: core.Latency})
		if err != nil {
			return err
		}
		_, tripleOK := tp.SolveTriples()
		keep("3-partition -> latency/one-to-one (Thm 9)", fmt.Sprintf("B=%d %v", tp.B, tp.Items), tripleOK, fmath.LE(latency, float64(tp.B)))
	}

	twos := []struct {
		items []int
		k, x  float64
	}{
		{[]int{1, 2, 3}, 8, 0.01},
		{[]int{1, 1, 4}, 8, 0.01},
	}
	for _, c := range twos {
		tp := npc.TwoPartition{Items: c.items}
		g := npc.EncodeTriCriteriaOneToOne(tp, c.k, c.x)
		_, solvable := tp.Solve()
		energy, err := optimum(&g.Instance, core.Request{Rule: g.Rule, Objective: core.Energy,
			PeriodBounds: []float64{g.PeriodBound}, LatencyBounds: []float64{g.LatencyBound}})
		feasible := err == nil && fmath.LE(energy, g.EnergyBound)
		if err != nil && !errors.Is(err, exact.ErrInfeasible) {
			return err
		}
		keep("2-partition -> tri-criteria (Thm 26)", fmt.Sprintf("%v", c.items), solvable, feasible)
	}
	tb.Render(w)
	fmt.Fprintln(w)
	return firstErr
}
