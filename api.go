package repro

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/general"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Model types (Section 3 of the paper; see internal/pipeline).
type (
	// Stage is one stage of a linear chain: computation requirement plus
	// output data size.
	Stage = pipeline.Stage
	// Application is a pipelined linear-chain workflow.
	Application = pipeline.Application
	// Processor is a multi-modal (DVFS) compute resource.
	Processor = pipeline.Processor
	// Platform is the target machine: processors, link bandwidths, and
	// per-application virtual input/output links.
	Platform = pipeline.Platform
	// Instance bundles applications, platform and energy model.
	Instance = pipeline.Instance
	// EnergyModel is Static + speed^Alpha per enrolled processor.
	EnergyModel = pipeline.EnergyModel
	// CommModel selects overlapped or serialized communications.
	CommModel = pipeline.CommModel
	// Class is the platform heterogeneity level.
	Class = pipeline.Class
)

// Mapping types (Section 3.3).
type (
	// Mapping assigns every application's stages to processors and modes.
	Mapping = mapping.Mapping
	// AppMapping is one application's ordered interval decomposition.
	AppMapping = mapping.AppMapping
	// PlacedInterval is a stage range on a processor at a fixed mode.
	PlacedInterval = mapping.PlacedInterval
	// Rule selects one-to-one or interval mappings.
	Rule = mapping.Rule
	// Metrics reports period, latency and energy of a mapping.
	Metrics = mapping.Metrics
)

// Solver types (the paper's contribution; see internal/core).
type (
	// Request describes an optimization problem for Solve.
	Request = core.Request
	// Result is a solved mapping with provenance and metrics.
	Result = core.Result
	// Criterion is the objective to minimize.
	Criterion = core.Criterion
	// Method records which algorithm produced a result.
	Method = core.Method
)

// Simulation types (see internal/sim).
type (
	// SimResult is the measured behaviour of one application.
	SimResult = sim.Result
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
)

// ParetoPoint is one (period, energy) trade-off with a witness mapping.
type ParetoPoint = pareto.Point

// Communication models.
const (
	Overlap   = pipeline.Overlap
	NoOverlap = pipeline.NoOverlap
)

// Mapping rules.
const (
	OneToOne = mapping.OneToOne
	Interval = mapping.Interval
)

// Objectives.
const (
	Period  = core.Period
	Latency = core.Latency
	Energy  = core.Energy
)

// Platform classes.
const (
	FullyHomogeneous   = pipeline.FullyHomogeneous
	CommHomogeneous    = pipeline.CommHomogeneous
	FullyHeterogeneous = pipeline.FullyHeterogeneous
)

// DefaultEnergy is the paper's example model: no static part, alpha = 2.
var DefaultEnergy = pipeline.DefaultEnergy

// Errors surfaced by Solve.
var (
	// ErrInfeasible reports that no mapping satisfies the bounds.
	ErrInfeasible = core.ErrInfeasible
	// ErrUnresolved reports that an NP-hard problem past the exact limit
	// spent its search budget without finding a mapping: none is known
	// and none is proven not to exist.
	ErrUnresolved = core.ErrUnresolved
	// ErrUnsupported reports a criteria combination the paper rules out.
	ErrUnsupported = core.ErrUnsupported
)

// Solve minimizes the requested criterion under the request's bounds,
// dispatching per the paper's complexity tables (see package core).
func Solve(inst *Instance, req Request) (Result, error) {
	return core.Solve(inst, req)
}

// Batch solving types (see internal/batch).
type (
	// Job is one batch solver invocation: an instance plus a request.
	Job = batch.Job
	// BatchOptions configures SolveBatch (worker count, shared cache).
	BatchOptions = batch.Options
	// BatchResult pairs one job's Result with its error.
	BatchResult = batch.JobResult
	// BatchStats aggregates a SolveBatch call: cache hits, errors,
	// per-method counts and wall time.
	BatchStats = batch.Stats
	// SolveCache memoizes solver results across SolveBatch calls.
	SolveCache = batch.Cache
	// SolveCacheStats is a snapshot of a SolveCache's counters: entries,
	// configured cap, hits, misses and evictions of the memoized results,
	// and the same counters for the compiled plans in Plans.
	SolveCacheStats = batch.CacheStats
)

// NewSolveCache returns an empty, unbounded memoization cache that can be
// shared by successive SolveBatch calls (and by concurrent ones: it is
// safe for concurrent use).
func NewSolveCache() *SolveCache { return batch.NewCache() }

// NewSolveCacheCap returns a memoization cache bounded to at most
// maxEntries memoized results (and as many compiled plans); beyond the cap
// the least recently used entries are evicted. A non-positive cap means
// unbounded. A bounded cache is the right choice for a long-running process
// (see cmd/pipeserved) where an unbounded memo would grow for the life of
// the server. Inspect usage via (*SolveCache).Stats.
func NewSolveCacheCap(maxEntries int) *SolveCache { return batch.NewCacheCap(maxEntries) }

// SolveBatch solves every job concurrently on a bounded worker pool,
// deduplicating identical jobs through a canonical-key memoization cache,
// and returns per-job results in input order plus aggregate statistics.
// Each result is bit-identical to what sequential Solve returns for the
// same job; a failing job only poisons its own slot.
func SolveBatch(jobs []Job, opts BatchOptions) ([]BatchResult, BatchStats) {
	return batch.Solve(jobs, opts)
}

// SolveBatchCtx is SolveBatch with cancellation: once ctx is done, jobs
// that have not started return ctx.Err() in their slot, a job whose
// search is in flight stops and returns the same, and the call returns
// promptly. Results computed before the cancellation are kept, so partial
// progress is not thrown away.
func SolveBatchCtx(ctx context.Context, jobs []Job, opts BatchOptions) ([]BatchResult, BatchStats) {
	return batch.SolveCtx(ctx, jobs, opts)
}

// Compiled-plan types (see internal/plan).
type (
	// Plan is an immutable compiled solver state for one (instance, rule,
	// communication model) triple, answering many criterion/bound queries
	// without re-deriving per-instance state. Safe for concurrent use.
	Plan = plan.Plan
	// PlanQuery is one criterion/bound question against a compiled plan:
	// a Request minus the fields fixed at compile time.
	PlanQuery = plan.Query
	// PlanStats snapshots a plan's query counters (queries, memo hits,
	// memo entries, evictions).
	PlanStats = plan.Stats
)

// Compile validates and preprocesses an instance once into a Plan whose
// queries — Plan.Solve(PlanQuery{...}) — are bit-identical to fresh Solve
// calls with the same rule, model and query fields, but amortize
// validation, classification and per-instance precomputation across the
// whole query stream, and answer repeated queries from a memo. Use
// PlanQueryOf to project an existing Request onto the query axes.
func Compile(inst *Instance, rule Rule, model CommModel) (*Plan, error) {
	return plan.Compile(inst, rule, model)
}

// PlanQueryOf projects a Request onto the plan query axes, dropping the
// rule and communication model (they are fixed by the plan).
func PlanQueryOf(req Request) PlanQuery { return plan.QueryOf(req) }

// UniformBounds turns a single global weighted threshold X into the
// per-application bound array X / W_a.
func UniformBounds(inst *Instance, x float64) []float64 {
	return core.UniformBounds(inst, x)
}

// StretchWeights reweights every application by the inverse of its solo
// objective so the weighted max becomes the maximum stretch (Section 3.4).
func StretchWeights(inst *Instance, req Request) (Instance, error) {
	return core.StretchWeights(inst, req)
}

// Evaluate computes period, latency and energy of a mapping analytically
// (Equations 3-6).
func Evaluate(inst *Instance, m *Mapping, model CommModel) Metrics {
	return mapping.Evaluate(inst, m, model)
}

// ValidateMapping checks that m is a legal mapping of inst under the rule.
func ValidateMapping(inst *Instance, m *Mapping, rule Rule) error {
	return m.Validate(inst, rule)
}

// Simulate executes the mapping dataset-by-dataset under the ASAP schedule
// and returns the measured per-application latency and steady-state period.
func Simulate(inst *Instance, m *Mapping, model CommModel, opt SimOptions) ([]SimResult, error) {
	return sim.Simulate(inst, m, model, opt)
}

// VerifyMapping simulates m and checks the measurements against the
// analytic formulas within tol, returning a descriptive error on mismatch.
func VerifyMapping(inst *Instance, m *Mapping, model CommModel, tol float64) error {
	return sim.Verify(inst, m, model, tol)
}

// ParetoPeriodEnergy computes the period/energy trade-off frontier under
// the given rule. On the platform classes where the paper's bi-criteria
// algorithms are polynomial (fully homogeneous interval mappings,
// communication homogeneous one-to-one mappings) the frontier is built by a
// polynomial candidate sweep; otherwise it falls back to exhaustive
// enumeration, subject to the same search-space limits as Solve.
func ParetoPeriodEnergy(inst *Instance, rule Rule, model CommModel) ([]ParetoPoint, error) {
	return ParetoPeriodEnergyCtx(context.Background(), inst, rule, model)
}

// ParetoPeriodEnergyCtx is ParetoPeriodEnergy with cancellation: the
// polynomial candidate sweeps stop between candidate solves once ctx is
// done (the exhaustive fallback honours ctx only before it starts).
func ParetoPeriodEnergyCtx(ctx context.Context, inst *Instance, rule Rule, model CommModel) ([]ParetoPoint, error) {
	return pareto.PeriodEnergyCtx(ctx, inst, rule, model, batch.Options{})
}

// MinEnergyUnderPeriod answers the server problem on a frontier.
func MinEnergyUnderPeriod(front []ParetoPoint, target float64) float64 {
	return pareto.MinEnergyUnderPeriod(front, target)
}

// MinPeriodUnderEnergy answers the laptop problem on a frontier.
func MinPeriodUnderEnergy(front []ParetoPoint, budget float64) float64 {
	return pareto.MinPeriodUnderEnergy(front, budget)
}

// MotivatingExample returns the Section 2 / Figure 1 instance.
func MotivatingExample() Instance { return pipeline.MotivatingExample() }

// StreamingCenter returns the mixed video/audio/image preset instance on p
// processors.
func StreamingCenter(p int) Instance { return workload.StreamingCenter(p) }

// NewHomogeneousPlatform builds a fully homogeneous platform: p identical
// processors with the given mode set and uniform bandwidth b, sized for
// numApps applications.
func NewHomogeneousPlatform(p int, speeds []float64, b float64, numApps int) Platform {
	return pipeline.NewHomogeneousPlatform(p, speeds, b, numApps)
}

// NewCommHomogeneousPlatform builds a communication homogeneous platform
// from per-processor speed sets with uniform bandwidth b.
func NewCommHomogeneousPlatform(speedSets [][]float64, b float64, numApps int) Platform {
	return pipeline.NewCommHomogeneousPlatform(speedSets, b, numApps)
}

// NewHeterogeneousPlatform builds a fully heterogeneous platform from
// explicit speed sets and bandwidth matrices.
func NewHeterogeneousPlatform(speedSets [][]float64, bw, in, out [][]float64) Platform {
	return pipeline.NewHeterogeneousPlatform(speedSets, bw, in, out)
}

// RandomInstance draws a reproducible random instance; see
// internal/workload for the configuration type.
func RandomInstance(rng *rand.Rand, cfg workload.Config) (Instance, error) {
	return workload.Instance(rng, cfg)
}

// GenerateInstance draws scenario `index` of the seeded verification
// corpus (see internal/gen): a small instance plus a matching solver
// request, cycling through every platform class, communication model,
// mapping rule and criterion combination as the index advances (any 36
// consecutive indices cover all combinations exactly once), with
// degenerate shapes mixed in every 5th draw. The draw is a pure function
// of (seed, index). This is the same corpus the differential harness
// (internal/diffcheck) verifies and BenchmarkCorpus measures, so clients
// can replay the exact instances behind BENCH_solver.json.
func GenerateInstance(seed int64, index int) (Instance, Request) {
	sc := gen.DefaultSpace().Sample(seed, index)
	return sc.Inst, sc.Req
}

// WorkloadConfig re-exports the random instance configuration.
type WorkloadConfig = workload.Config

// DecodeInstance parses an instance from the JSON schema used by the cmd/
// tools, validating it.
func DecodeInstance(r io.Reader) (Instance, error) { return pipeline.DecodeJSON(r) }

// EncodeInstance writes an instance in the tool JSON schema.
func EncodeInstance(w io.Writer, inst *Instance) error { return pipeline.EncodeJSON(w, inst) }

// Replication extension (the paper's Section 6 future work; package repl).
type (
	// ReplicatedMapping allows an interval to be served by several
	// processors in round-robin over data sets.
	ReplicatedMapping = repl.Mapping
	// ReplicatedInterval is a stage range with its replica set.
	ReplicatedInterval = repl.Interval
	// Replica is one processor/mode pair of a replicated interval.
	Replica = repl.Replica
)

// LiftMapping converts a plain interval mapping into a replicated mapping
// with one replica per interval.
func LiftMapping(m *Mapping) ReplicatedMapping { return repl.Lift(m) }

// ReplicatedMinPeriod minimizes the weighted global period over replicated
// interval mappings on a fully homogeneous platform (replicated chain DP
// plus Algorithm 2). Processors run at their fastest mode.
func ReplicatedMinPeriod(inst *Instance, model CommModel) (ReplicatedMapping, float64, error) {
	return repl.MinPeriodFullyHom(inst, model)
}

// EvaluateReplicated computes the period, worst-path latency and energy of
// a replicated mapping.
func EvaluateReplicated(inst *Instance, rm *ReplicatedMapping, model CommModel) Metrics {
	return Metrics{
		Period:  repl.Period(inst, rm, model),
		Latency: repl.Latency(inst, rm),
		Energy:  repl.Energy(inst, rm),
	}
}

// SimulateReplicated executes a replicated mapping with round-robin
// dispatch and in-order delivery.
func SimulateReplicated(inst *Instance, rm *ReplicatedMapping, model CommModel, opt SimOptions) ([]SimResult, error) {
	return sim.SimulateReplicated(inst, rm, model, opt)
}

// VerifyReplicatedMapping checks the replicated simulator against the
// analytic replicated formulas within tol.
func VerifyReplicatedMapping(inst *Instance, rm *ReplicatedMapping, model CommModel, tol float64) error {
	return sim.VerifyReplicated(inst, rm, model, tol)
}

// ReplicatedMinEnergy minimizes the total energy of a replicated interval
// mapping under per-application period bounds on a fully homogeneous
// multi-modal platform (replicated Theorem 18 DP + Theorem 21 combiner).
// With a steep energy exponent, several slow replicas can meet a
// throughput target more cheaply than one fast processor.
func ReplicatedMinEnergy(inst *Instance, model CommModel, periodBounds []float64) (ReplicatedMapping, float64, error) {
	return repl.MinEnergyGivenPeriodFullyHom(inst, model, periodBounds)
}

// General mappings (the Section 3.3 excluded class; package general). Only
// communication-free instances are supported — with transfers, even
// scheduling a fixed general mapping is a hard combinatorial problem,
// which is precisely why the paper restricts itself to interval mappings.
type GeneralMapping = general.Mapping

// GeneralMinPeriod exhaustively minimizes the period over general mappings
// (processor sharing allowed) on a communication-free instance. Exponential
// with branch-and-bound pruning; limit caps the explored leaves.
func GeneralMinPeriod(inst *Instance, limit int64) (GeneralMapping, float64, error) {
	return general.ExactMinPeriod(inst, limit)
}

// GeneralLPT is the longest-processing-time heuristic for general mappings
// on communication-free instances; within Graham's 4/3 - 1/(3p) factor of
// the optimum on identical processors.
func GeneralLPT(inst *Instance) (GeneralMapping, float64, error) {
	return general.LPT(inst)
}

// ReplicatedHeurMinPeriod heuristically minimizes the weighted global
// period over replicated interval mappings on an arbitrary platform
// (simulated annealing over the replicated neighbourhood, deterministic
// per seed). On fully homogeneous platforms prefer ReplicatedMinPeriod,
// which is exact and polynomial.
func ReplicatedHeurMinPeriod(inst *Instance, model CommModel, seed int64, iters, restarts int) (ReplicatedMapping, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	return repl.HeurMinPeriod(rng, inst, model, repl.HeurOptions{Iters: iters, Restarts: restarts})
}

// Fault tolerance (see internal/chaos): deterministic fault injection
// against running mappings plus failure re-solving with migration diffs.
type (
	// FaultKind is the category of a fault event.
	FaultKind = chaos.Kind
	// FaultEvent is one fault: a kind plus the indices/factor it acts on.
	FaultEvent = chaos.Event
	// FaultSchedule is a replayable fault stream; equal seeds over equal
	// instances yield bit-identical schedules.
	FaultSchedule = chaos.Schedule
	// AppliedFault is one event's outcome: the mutated, re-validated
	// instance plus the processor index translation it induced.
	AppliedFault = chaos.Applied
	// MigrationDiff quantifies the move from a pre-fault mapping to its
	// re-solved successor (stages moved, mode changes, processors
	// retired/enrolled, disruption cost).
	MigrationDiff = chaos.MigrationDiff
	// ResolveResult is a failure re-solve: the event, the mutated
	// instance, simulator-verified before/after results, and their diff.
	ResolveResult = chaos.ResolveResult
)

// Fault kinds.
const (
	ProcFail    = chaos.ProcFail
	ModeDrop    = chaos.ModeDrop
	WeightDrift = chaos.WeightDrift
	Slowdown    = chaos.Slowdown
)

// ErrFaultInapplicable classifies an event the instance cannot absorb
// (failing the last processor, dropping a mode of a uni-modal processor).
// It is a classification, not a crash; test with errors.Is.
var ErrFaultInapplicable = chaos.ErrInapplicable

// GenerateFaults draws a deterministic schedule of n fault events for the
// instance: equal (seed, instance) pairs replay bit-identically, and every
// event is applicable to the instance state it will see in order.
func GenerateFaults(seed int64, inst *Instance, n int) (FaultSchedule, error) {
	return chaos.Generate(seed, inst, n)
}

// ApplyFault applies one event to a deep copy of inst and re-validates the
// mutated instance; inst itself is never written.
func ApplyFault(inst *Instance, ev FaultEvent) (AppliedFault, error) {
	return chaos.Apply(inst, ev)
}

// InjectFaults applies a whole event stream in order, returning every
// intermediate re-validated state.
func InjectFaults(inst *Instance, events []FaultEvent) ([]AppliedFault, error) {
	return chaos.Inject(inst, events)
}

// Resolve computes the post-fault mapping for a compiled plan's problem:
// solve the pre-fault query, apply the event, recompile, re-solve, verify
// both mappings through the simulator, and return them with a migration
// diff. Deterministic: the same (plan, query, event) triple always yields
// bit-identical results.
func Resolve(pl *Plan, q PlanQuery, ev FaultEvent) (*ResolveResult, error) {
	return chaos.Resolve(pl, q, ev)
}

// ResolveCtx is Resolve under the caller's context: both solves stop when
// it ends, and the call answers the context's error. The query's own
// effort fields (ExactLimit, HeurIters, HeurRestarts) bound the work of
// each solve.
func ResolveCtx(ctx context.Context, pl *Plan, q PlanQuery, ev FaultEvent) (*ResolveResult, error) {
	return chaos.ResolveCtx(ctx, pl, q, ev)
}

// PromoteReplicas repairs a replicated mapping after a fault without
// re-solving: replicas on a retired processor are dropped and their
// group's survivors carry the full load, with indices and modes translated
// into the mutated instance. It returns a wrapped ErrFaultInapplicable
// when an interval loses its only replica — redundancy cannot absorb that
// fault and the caller must fall back to Resolve.
func PromoteReplicas(orig *Instance, rm *ReplicatedMapping, ap *AppliedFault) (ReplicatedMapping, int, error) {
	return chaos.Promote(orig, rm, ap)
}
