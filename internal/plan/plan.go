// Package plan is the compiled-plan layer of the solver: Compile
// preprocesses one (instance, rule, communication model) triple once into
// an immutable Plan — validated and privately cloned instance, platform
// class, per-application work prefix sums, advisory per-application period
// lower bounds, and (lazily) the exact Pareto candidate-period set — that
// can then answer many criterion/bound queries without re-deriving any of
// that state.
//
// Plan.Solve is bit-identical to core.Solve on the same problem (the
// differential harness in internal/diffcheck replays every corpus scenario
// through both paths and asserts exact agreement), but a Plan amortizes the
// per-request work three ways:
//
//   - validation and platform classification run once at compile time, not
//     per query (core.SolvePrepared skips both);
//   - repeated queries are answered from a single-flight LRU memo
//     (internal/memo) keyed by a canonical query encoding (after a
//     fixed-width digest of the plan's key; see Stored), so the
//     steady-state repeat-query path is a map lookup plus a defensive copy —
//     near-zero allocations and orders of magnitude faster than a fresh
//     solve;
//   - query keys are encoded into pooled scratch buffers (sync.Pool), so
//     the hot path does not regrow an arena per call.
//
// A Plan is safe for concurrent use by any number of goroutines; every
// returned Result is an independent deep copy, so callers can mutate their
// mappings freely without corrupting the memo (the same aliasing guarantee
// the batch cache makes). Plans are themselves memoized across requests by
// the batch engine's plan tier (internal/batch.Cache), keyed by the
// canonical (instance, rule, comm) encoding; plans compiled there answer
// from one query memo shared by the whole cache (see CompileShared).
package plan

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
)

// memoCap bounds the private query memo of a plan built by Compile: beyond
// it the least recently used query results are evicted, so a long-lived
// plan cannot grow without bound under adversarial query streams.
const memoCap = 4096

// Query is one criterion/bound question against a compiled plan. It is
// core.Request minus the fields fixed at compile time (rule and
// communication model). The nil-ness of the bound slices is semantically
// meaningful, exactly as on core.Request: nil means unconstrained.
type Query struct {
	// Objective is the criterion to minimize.
	Objective core.Criterion
	// PeriodBounds and LatencyBounds constrain the per-application
	// unweighted period/latency when non-nil.
	PeriodBounds  []float64
	LatencyBounds []float64
	// EnergyBudget, if positive, constrains the total energy.
	EnergyBudget float64
	// ExactLimit, Seed, HeurIters and HeurRestarts tune the exhaustive and
	// heuristic fallbacks exactly as on core.Request.
	ExactLimit              int64
	Seed                    int64
	HeurIters, HeurRestarts int
}

// QueryOf projects a core.Request onto the plan query axes, dropping the
// rule and communication model (they are properties of the plan).
func QueryOf(req core.Request) Query {
	return Query{
		Objective:     req.Objective,
		PeriodBounds:  req.PeriodBounds,
		LatencyBounds: req.LatencyBounds,
		EnergyBudget:  req.EnergyBudget,
		ExactLimit:    req.ExactLimit,
		Seed:          req.Seed,
		HeurIters:     req.HeurIters,
		HeurRestarts:  req.HeurRestarts,
	}
}

// Plan is an immutable compiled solver state answering many queries for one
// (instance, rule, communication model) triple. Create with Compile; the
// zero value is not usable.
type Plan struct {
	inst  pipeline.Instance
	rule  mapping.Rule
	model pipeline.CommModel
	cls   pipeline.Class

	// prefixes[a] is Apps[a].WorkPrefix(), computed once.
	prefixes [][]float64
	// periodLB[a] is an advisory lower bound on application a's unweighted
	// period under any mapping (see PeriodLowerBounds).
	periodLB []float64

	candsOnce sync.Once
	cands     []float64

	// memo holds the answered queries, keyed by digest followed by the
	// query's canonical encoding. A plan from Compile owns a private memo
	// and an empty planKey; CompileShared plans share a caller's memo, and
	// each answer they store carries their planKey, which a hit must
	// match (see Stored).
	memo    *memo.Memo[Stored]
	planKey string
	digest  [digestLen]byte

	queries, hits, degraded atomic.Int64
}

// degradedHeurIters is the reduced annealing budget of a degraded solve
// (the normal default is 4000 iterations times 3 restarts): after a
// wall-clock budget has already expired, the fallback must be quick, not
// thorough.
const degradedHeurIters = 800

// keyPool recycles query-key scratch buffers across Solve calls (the
// per-query arena of the package docs).
var keyPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Stored is one answer in a query memo: a query's result, and the key of
// the plan that asked it. Plans sharing a memo key their answers by a
// fixed-width digest of their plan key, so an answer counts as a hit only
// for the plan whose key it carries; a plan whose digest collides with
// another's solves without the memo. No answer rests on a digest alone.
type Stored struct {
	planKey string
	res     core.Result
}

// digestLen is the width of a plan key's digest in query keys.
const digestLen = 16

// digestKey maps a plan key to the digest its query keys start with.
// Tests replace it to force collisions.
var digestKey = func(planKey string) (d [digestLen]byte) {
	sum := sha256.Sum256([]byte(planKey))
	copy(d[:], sum[:])
	return d
}

// Compile validates the instance once, clones it (the plan owns its copy:
// later caller mutations of inst cannot corrupt compiled state), classifies
// the platform and precomputes the per-application prefix sums and period
// lower bounds. The same inputs always compile to a plan whose queries are
// bit-identical to fresh core.Solve calls on the original instance.
func Compile(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (*Plan, error) {
	return CompileShared(inst, rule, model, memo.New[Stored](memoCap), "")
}

// CompileShared is Compile with the query memo supplied by the caller, so
// that many plans can answer from one bounded memo. planKey must tell this
// plan apart from every other plan sharing m: the batch cache passes the
// canonical (instance, rule, comm) encoding. The plan keys its queries by
// a fixed-width digest of planKey followed by the query encoding, so a
// stored query key stays small however large the instance, and stores
// planKey itself (shared, not copied) with each answer: a memo hit is
// taken only when the stored key equals planKey, and a plan whose digest
// collides with another's answers that query without the memo.
func CompileShared(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel, m *memo.Memo[Stored], planKey string) (*Plan, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		inst:    inst.Clone(),
		rule:    rule,
		model:   model,
		memo:    m,
		planKey: planKey,
		digest:  digestKey(planKey),
	}
	p.cls = p.inst.Platform.Classify()
	p.prefixes = make([][]float64, len(p.inst.Apps))
	p.periodLB = make([]float64, len(p.inst.Apps))
	maxSpeed := 0.0
	for u := range p.inst.Platform.Processors {
		maxSpeed = math.Max(maxSpeed, p.inst.Platform.Processors[u].MaxSpeed())
	}
	for a := range p.inst.Apps {
		app := &p.inst.Apps[a]
		p.prefixes[a] = app.WorkPrefix()
		// Any interval containing stage k computes at least work_k at some
		// speed <= maxSpeed, and the interval's cycle time is at least its
		// computation time under both communication models.
		lb := 0.0
		for k := range app.Stages {
			lb = math.Max(lb, app.Stages[k].Work/maxSpeed)
		}
		p.periodLB[a] = lb
	}
	return p, nil
}

// Instance returns the plan's private instance. It is shared, not copied:
// callers must treat it as read-only.
func (p *Plan) Instance() *pipeline.Instance { return &p.inst }

// Rule returns the mapping rule fixed at compile time.
func (p *Plan) Rule() mapping.Rule { return p.rule }

// Model returns the communication model fixed at compile time.
func (p *Plan) Model() pipeline.CommModel { return p.model }

// Class returns the platform class computed at compile time.
func (p *Plan) Class() pipeline.Class { return p.cls }

// WorkPrefix returns application a's precomputed work prefix sums (shared,
// read-only).
func (p *Plan) WorkPrefix(a int) []float64 { return p.prefixes[a] }

// PeriodLowerBounds returns an advisory per-application lower bound on the
// unweighted period achievable by any mapping under any rule: no interval's
// cycle time can undercut its largest stage at the platform's fastest
// speed. The slice is shared, read-only. It is advisory — admission control
// can reject hopeless period bounds early — and is never used to shortcut
// Solve, which must stay bit-identical to core.Solve.
func (p *Plan) PeriodLowerBounds() []float64 { return p.periodLB }

// Request materializes the full core.Request a query stands for.
func (p *Plan) Request(q Query) core.Request {
	return core.Request{
		Rule:          p.rule,
		Model:         p.model,
		Objective:     q.Objective,
		PeriodBounds:  q.PeriodBounds,
		LatencyBounds: q.LatencyBounds,
		EnergyBudget:  q.EnergyBudget,
		ExactLimit:    q.ExactLimit,
		Seed:          q.Seed,
		HeurIters:     q.HeurIters,
		HeurRestarts:  q.HeurRestarts,
	}
}

// Solve answers one query against the compiled state. The first arrival of
// a query key runs the solver (via core.SolvePrepared — validation and
// classification were paid at compile time); duplicates, concurrent or
// later, are answered from the memo. The returned Result is an independent
// deep copy and the error, value, metrics, method, optimality flag and
// mapping are bit-identical to core.Solve(instance, plan.Request(q)).
func (p *Plan) Solve(q Query) (core.Result, error) {
	res, err, _ := p.Answer(context.Background(), q)
	return res, err
}

// SolveCtx is Solve under a wall-clock budget: when ctx carries no deadline
// or cancellation it is exactly Solve, and when the budget expires before
// the full solve publishes, the call returns a reduced-effort degraded
// result (tagged Preempted, never memoized) instead of blocking. The full
// solve keeps running on a background goroutine and publishes its clean
// result to the memo, so later arrivals of the same query key self-heal to
// the budget-free answer. A cancelled (as opposed to expired) context
// returns ctx.Err(): the caller has gone away and no answer is wanted.
func (p *Plan) SolveCtx(ctx context.Context, q Query) (core.Result, error) {
	res, err, _ := p.Answer(ctx, q)
	return res, err
}

// Answer is SolveCtx that also reports whether the memo answered: hit is
// true when the query key was already memoized or in flight, false when
// this call ran (or started) the solve or took the degraded path. A call
// whose deadline has already expired returns the plan's published answer
// when there is one, and otherwise degrades without installing an entry.
func (p *Plan) Answer(ctx context.Context, q Query) (res core.Result, err error, hit bool) {
	if err := ctx.Err(); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return core.Result{}, err, false
		}
		if e, ok := p.lookup(q, false); ok {
			if res, err, own := p.cloneOwn(e.Wait()); own {
				p.queries.Add(1)
				p.hits.Add(1)
				return res, err, true
			}
		}
		res, err = p.degradedSolve(q)
		return res, err, false
	}
	p.queries.Add(1)
	e, hit := p.lookup(q, true)
	res, err, own := p.await(ctx, e, q, hit)
	if !own {
		// The entry holds another plan's answer under a colliding digest:
		// solve in a private one-entry memo, which keeps the budget and
		// panic handling of the shared path.
		e, _ = memo.New[Stored](1).Get(nil)
		res, err, _ = p.await(ctx, e, q, false)
		return res, err, false
	}
	if hit {
		p.hits.Add(1)
	}
	return res, err, hit
}

// await answers q from its memo entry e, running the solve first when this
// call installed e (hit false). own is false when e, once published, holds
// another plan's answer; res and err are then meaningless.
func (p *Plan) await(ctx context.Context, e *memo.Entry[Stored], q Query, hit bool) (res core.Result, err error, own bool) {
	if ctx.Done() == nil {
		if !hit {
			p.run(e, q)
		}
		return p.cloneOwn(e.Wait())
	}
	if !hit {
		// The solver reads the query's bound slices for the whole solve;
		// clone them so the caller regaining control at deadline expiry
		// cannot corrupt the memoized result by reusing its buffers.
		go p.run(e, cloneQuery(q))
	}
	select {
	case <-e.Ready():
		return p.cloneOwn(e.Wait())
	case <-ctx.Done():
		select {
		case <-e.Ready(): // published as the deadline fired: the answer wins
			return p.cloneOwn(e.Wait())
		default:
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			res, err = p.degradedSolve(q)
			return res, err, true
		}
		return core.Result{}, ctx.Err(), true
	}
}

// lookup finds or, with install, installs the single-flight memo entry for
// q. hit reports whether the entry was already present (the caller must
// then wait on it); on a miss the caller owns running the solve via run.
// Without install, only a published entry is found.
func (p *Plan) lookup(q Query, install bool) (e *memo.Entry[Stored], hit bool) {
	kp := keyPool.Get().(*[]byte)
	buf := appendQueryKey(append((*kp)[:0], p.digest[:]...), q)
	if install {
		e, hit = p.memo.Get(buf)
	} else {
		e, hit = p.memo.Published(buf)
	}
	*kp = buf
	keyPool.Put(kp)
	return e, hit
}

// run executes the solve for a freshly installed entry and publishes the
// result under the plan's key. A panic in the solver is published as the
// entry's error, still under the plan's key, so it stays confined to this
// plan's query.
func (p *Plan) run(e *memo.Entry[Stored], q Query) {
	e.Fill(func() (s Stored, err error) {
		s.planKey = p.planKey
		defer func() {
			if r := recover(); r != nil {
				s.res, err = core.Result{}, fmt.Errorf("plan: solve panicked: %v\n%s", r, debug.Stack())
			}
		}()
		s.res, err = core.SolvePrepared(&p.inst, p.cls, p.Request(q))
		return s, err
	})
}

// cloneOwn is cloneStored for an answer read from the memo: own reports
// whether the answer is this plan's, and only then is it copied.
func (p *Plan) cloneOwn(s Stored, err error) (res core.Result, _ error, own bool) {
	if s.planKey != p.planKey {
		return core.Result{}, nil, false
	}
	res, err = cloneStored(s.res, err)
	return res, err, true
}

// degradedSolve is the reduced-effort fallback taken when a wall-clock
// budget expires: it forces the heuristic path on NP-hard cells (ExactLimit
// 1; polynomial cells still run their fast theorem algorithm unchanged)
// with a small annealing budget, and tags the result Preempted. Preempted
// results are never memoized — whether a deadline fired depends on
// scheduler timing, so caching one would poison budget-free callers of the
// same query key. A failure of the fallback itself is reported as
// context.DeadlineExceeded: the budget expired and the quick path could not
// produce a trustworthy verdict (the heuristic's "infeasible" is not a
// proof), so clients should retry with a larger budget.
func (p *Plan) degradedSolve(q Query) (core.Result, error) {
	p.degraded.Add(1)
	dq := q
	dq.ExactLimit = 1
	// The annealing budget is forced down even when the query tuned its
	// own: a query whose HeurIters made the full solve slow must not make
	// the "quick" fallback just as slow.
	dq.HeurIters = degradedHeurIters
	dq.HeurRestarts = 1
	res, err := core.SolvePrepared(&p.inst, p.cls, p.Request(dq))
	if err != nil {
		return core.Result{}, fmt.Errorf("plan: solve budget expired: %w (degraded fallback: %v)", context.DeadlineExceeded, err)
	}
	res.Preempted = true
	return res, nil
}

// cloneQuery deep-copies the query's bound slices (the only reference
// fields) for handoff to a background solve.
func cloneQuery(q Query) Query {
	if q.PeriodBounds != nil {
		q.PeriodBounds = append([]float64(nil), q.PeriodBounds...)
	}
	if q.LatencyBounds != nil {
		q.LatencyBounds = append([]float64(nil), q.LatencyBounds...)
	}
	return q
}

// cloneStored hands out an independent copy of a memoized success; failures
// keep the zero Result untouched (cloning would turn nil slices into empty
// ones, breaking bit-identity with a direct core.Solve call) and pass the
// error through, so a memo's Wait can feed it directly. It is the
// steady-state cost of a memo hit, so the copy is packed into three backing
// allocations (apps, intervals, metric floats) instead of one per slice —
// nil-ness of every slice is preserved, and full-capacity reslicing keeps
// the handed-out slices append-safe for callers.
func cloneStored(res core.Result, err error) (core.Result, error) {
	if err != nil {
		return res, err
	}
	c := res
	if res.Mapping.Apps != nil {
		apps := make([]mapping.AppMapping, len(res.Mapping.Apps))
		total := 0
		for i := range res.Mapping.Apps {
			total += len(res.Mapping.Apps[i].Intervals)
		}
		backing := make([]mapping.PlacedInterval, total)
		off := 0
		for i := range res.Mapping.Apps {
			src := res.Mapping.Apps[i].Intervals
			if src == nil {
				continue
			}
			dst := backing[off : off+len(src) : off+len(src)]
			copy(dst, src)
			apps[i].Intervals = dst
			off += len(src)
		}
		c.Mapping.Apps = apps
	}
	np, nl := len(res.Metrics.AppPeriods), len(res.Metrics.AppLatencies)
	if res.Metrics.AppPeriods != nil || res.Metrics.AppLatencies != nil {
		floats := make([]float64, np+nl)
		if res.Metrics.AppPeriods != nil {
			c.Metrics.AppPeriods = floats[0:np:np]
			copy(c.Metrics.AppPeriods, res.Metrics.AppPeriods)
		}
		if res.Metrics.AppLatencies != nil {
			c.Metrics.AppLatencies = floats[np : np+nl : np+nl]
			copy(c.Metrics.AppLatencies, res.Metrics.AppLatencies)
		}
	}
	return c, nil
}

// Stats is a point-in-time snapshot of a plan's query counters.
type Stats struct {
	// Queries counts Solve calls; Hits those answered by the memo
	// (including waits on an in-flight duplicate).
	Queries, Hits int64
	// Entries is the number of memoized query keys; Evictions how many
	// were dropped to keep the memo under its cap. For a plan compiled
	// into a shared memo (CompileShared) both describe the whole memo.
	Entries   int
	Evictions int64
	// Degraded counts SolveCtx calls whose budget expired before the full
	// solve finished, answered by the reduced-effort degraded path.
	Degraded int64
}

// HitRate returns Hits / Queries, or 0 before any query.
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// QueryStats returns a snapshot of the plan's counters.
func (p *Plan) QueryStats() Stats {
	ms := p.memo.Stats()
	return Stats{
		Queries:   p.queries.Load(),
		Hits:      p.hits.Load(),
		Entries:   ms.Entries,
		Evictions: ms.Evictions,
		Degraded:  p.degraded.Load(),
	}
}

// ParetoCandidates returns the exact candidate set of achievable weighted
// global period values for the plan's rule, computed once per plan and
// shared thereafter (read-only). It is meaningful on the platform classes
// where the paper's bi-criteria sweeps are polynomial: interval mappings on
// fully homogeneous platforms (every W_a times the cycle time of any stage
// interval at any common speed) and one-to-one mappings on communication
// homogeneous platforms (every W_a times any single stage's cycle time at
// any processor mode).
func (p *Plan) ParetoCandidates() []float64 {
	p.candsOnce.Do(func() {
		if p.rule == mapping.Interval {
			p.cands = p.intervalCandidates()
		} else {
			p.cands = p.oneToOneCandidates()
		}
	})
	return p.cands
}

// intervalCandidates enumerates W_a * cycle time of every stage interval at
// every common speed (fully homogeneous platforms).
func (p *Plan) intervalCandidates() []float64 {
	speeds := p.inst.Platform.Processors[0].Speeds
	b, _ := p.inst.Platform.HomogeneousLinks()
	var cands []float64
	for a := range p.inst.Apps {
		w := p.inst.Apps[a].EffectiveWeight()
		app := &p.inst.Apps[a]
		pre := p.prefixes[a]
		n := app.NumStages()
		for _, s := range speeds {
			for f := 0; f < n; f++ {
				for t := f; t < n; t++ {
					in, out := 0.0, 0.0
					if v := app.InputSize(f); v > 0 {
						in = v / b
					}
					if v := app.OutputSize(t); v > 0 {
						out = v / b
					}
					cands = append(cands, w*mapping.IntervalCost(p.model, in, (pre[t+1]-pre[f])/s, out))
				}
			}
		}
	}
	return fmath.SortedUnique(cands)
}

// oneToOneCandidates enumerates W_a * any single stage's cycle time at any
// processor mode (communication homogeneous platforms).
func (p *Plan) oneToOneCandidates() []float64 {
	b, _ := p.inst.Platform.HomogeneousLinks()
	var cands []float64
	for a := range p.inst.Apps {
		app := &p.inst.Apps[a]
		w := app.EffectiveWeight()
		for k := range app.Stages {
			in, out := 0.0, 0.0
			if v := app.InputSize(k); v > 0 {
				in = v / b
			}
			if v := app.OutputSize(k); v > 0 {
				out = v / b
			}
			for u := range p.inst.Platform.Processors {
				for _, s := range p.inst.Platform.Processors[u].Speeds {
					cands = append(cands, w*mapping.IntervalCost(p.model, in, app.Stages[k].Work/s, out))
				}
			}
		}
	}
	return fmath.SortedUnique(cands)
}

// appendQueryKey appends a canonical binary encoding of the query to dst:
// every field is written with an explicit presence/length tag so no two
// distinct queries share an encoding (floats as IEEE-754 bit patterns, nil
// slices distinguished from empty ones — "unconstrained" differs from
// "constrained by an empty array" to the solver's bound checks).
func appendQueryKey(dst []byte, q Query) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.Objective))
	dst = appendFloats(dst, q.PeriodBounds)
	dst = appendFloats(dst, q.LatencyBounds)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.EnergyBudget))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.ExactLimit))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.Seed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.HeurIters))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(q.HeurRestarts))
	return dst
}

func appendFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}
