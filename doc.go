// Package repro is a Go reproduction of "Performance and energy
// optimization of concurrent pipelined applications" (Anne Benoit, Paul
// Renaud-Goud, Yves Robert; LIP RR-2009-27 / IPDPS 2010).
//
// The library maps several independent linear-chain (pipelined)
// applications onto a platform of multi-modal (DVFS) processors, optimizing
// combinations of three criteria: period (inverse throughput), latency
// (response time) and energy (total power of enrolled processors). Two
// mapping rules are supported — one-to-one (one stage per processor) and
// interval (consecutive stages per processor) — on three platform classes:
// fully homogeneous, communication homogeneous, and fully heterogeneous,
// under both the overlap and no-overlap communication models.
//
// Solve is the main entry point. It implements the paper's complexity
// tables as a dispatcher: every problem variant the paper proves polynomial
// is solved by the corresponding exact polynomial algorithm (binary search
// plus greedy assignment, chain dynamic programs with the Algorithm 2
// processor allocation, minimum weight bipartite matching); every NP-hard
// variant runs a branch-and-bound search, to the end when the instance is
// small and under a fixed work budget otherwise, and falls back to a
// simulated-annealing heuristic only when that budget runs out, with the
// provenance reported in the Result. Only a finished search answers
// ErrInfeasible; a heuristic that finds no mapping answers ErrUnresolved.
//
// Compile is the many-queries-per-instance entry point (see
// internal/plan): it validates, classifies and preprocesses one
// (instance, rule, communication model) triple once into an immutable
// Plan, whose Solve(PlanQuery{...}) queries are bit-identical to fresh
// Solve calls but skip all per-instance work and answer repeated queries
// from a bounded memo with near-zero allocations. Pareto sweeps,
// experiment tables and batches all route through plans; a shared
// SolveCache additionally memoizes the compiled plans themselves (the
// plan tier), and the plans it compiles share one query memo, so each
// answer is stored once (both inspectable via SolveCacheStats).
//
// SolveBatch is the concurrent engine on top of Solve (see
// internal/batch): it fans a slice of independent jobs across a bounded
// worker pool, deduplicates identical jobs through a canonical-key
// memoization cache (shareable across calls via NewSolveCache), and
// returns per-job results in input order with aggregate statistics. Every
// result is bit-identical to what sequential Solve returns for the same
// job. The Pareto frontier builders and the experiment table drivers run
// on this engine, which compiles each distinct instance once per batch
// through the cache's plan tier.
//
// SolveBatchCtx is the context-aware form for long-lived processes: when
// the context is cancelled, jobs that have not started return ctx.Err()
// in their slot, workers stop picking up new work, and results computed
// before the cancellation are kept. Pair it with NewSolveCacheCap, which
// bounds the shared memoization cache to a fixed number of entries
// (LRU with eviction statistics), so one cache can serve an
// arbitrarily long request stream — cmd/pipeserved runs the solver as an
// HTTP service exactly this way.
//
// The invariants these layers rely on — memoized plans and results never
// escaping their caches uncloned, contexts flowing to every blocking call,
// sentinel errors matched with errors.Is, float comparisons routed through
// internal/fmath, and solver output depending only on (instance, seed) —
// are enforced mechanically by the pipelint analyzer suite in
// internal/lint (binary: cmd/pipelint, run by make lint and CI). See that
// package's documentation for each analyzer and the //lint:allow
// suppression directive.
//
// A discrete-event simulator (Simulate, VerifyMapping) executes mappings
// dataset-by-dataset and reproduces the analytic period and latency
// formulas, and Pareto frontier builders answer the paper's laptop problem
// ("best performance within an energy budget") and server problem ("least
// energy for a performance target").
//
// The fault-tolerance layer (see internal/chaos) models platform churn:
// GenerateFaults draws a deterministic, replayable schedule of fault
// events (processor failure, DVFS mode drop, weight drift, slowdown),
// ApplyFault/InjectFaults mutate and re-validate instances, and Resolve
// re-solves a compiled plan's problem after a fault, returning
// simulator-verified before/after results with a MigrationDiff. Solves
// under a budget (BatchOptions.SolveBudget, Plan.SolveCtx, ResolveCtx)
// degrade gracefully: when the exact path exceeds its budget the result
// falls back to the heuristic, tagged Degraded with a provable LowerBound
// — never silently.
//
// # Quick start
//
//	inst := repro.MotivatingExample() // Section 2 of the paper
//	res, err := repro.Solve(&inst, repro.Request{
//		Rule:      repro.Interval,
//		Model:     repro.Overlap,
//		Objective: repro.Energy,
//		PeriodBounds: repro.UniformBounds(&inst, 2),
//	})
//	// res.Value == 46, the paper's period/energy trade-off.
//
// Batch form, solving many requests at once:
//
//	results, stats := repro.SolveBatch([]repro.Job{
//		{Inst: &inst, Req: req1},
//		{Inst: &inst, Req: req2},
//	}, repro.BatchOptions{})
//	// results[i] answers jobs[i]; stats counts cache hits and methods.
//
// Compile-once/query-many form, for many questions about one instance:
//
//	pl, _ := repro.Compile(&inst, repro.Interval, repro.Overlap)
//	minPeriod, _ := pl.Solve(repro.PlanQuery{Objective: repro.Period})
//	minLatency, _ := pl.Solve(repro.PlanQuery{Objective: repro.Latency})
//	// Bit-identical to repro.Solve, minus the per-request setup.
//
// See README.md for an overview, examples/ for runnable programs, the
// cmd/ directory for the command-line tools (pipegen, pipemap, pipebatch,
// pipesim, pipebench, and the pipeserved HTTP service), and
// EXPERIMENTS.md for the paper-versus-measured record of every reproduced
// artifact.
package repro
