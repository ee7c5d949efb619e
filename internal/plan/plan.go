// Package plan is the compiled-plan layer of the solver: Compile
// preprocesses one (instance, rule, communication model) triple once into
// an immutable Plan — validated and privately cloned instance, platform
// class, and (lazily) the per-application cycle times and the exact Pareto
// candidate-period set — that can then answer many criterion/bound
// queries without re-deriving any of that state.
//
// Plan.Solve is bit-identical to core.Solve on the same problem (the
// differential harness in internal/diffcheck replays every corpus scenario
// through both paths and asserts exact agreement), but a Plan amortizes the
// per-request work three ways:
//
//   - validation and platform classification run once at compile time, not
//     per query (core.SolvePrepared skips both);
//   - repeated queries are answered from a single-flight LRU memo
//     (internal/memo) keyed by the plan's id followed by a compact
//     canonical query encoding, so the steady-state repeat-query path is a
//     map lookup plus unpacking the stored answer (core.Packed) into a
//     fresh Result — near-zero allocations and orders of magnitude faster
//     than a fresh solve;
//   - query keys are encoded into pooled scratch buffers (sync.Pool), so
//     the hot path does not regrow an arena per call.
//
// # Bound classes
//
// Three cells key a query by the class of its period bounds instead of
// their raw floats, so every bound of one class costs one solve:
//
//   - energy under period bounds, one-to-one rule, platform not fully
//     heterogeneous (Theorem 19, matching.MinEnergyGivenPeriodCommHom);
//   - energy under period bounds, interval rule, fully homogeneous
//     platform (Theorems 18 and 21, interval.MinEnergyGivenPeriodFullyHom);
//   - latency under period bounds with no energy budget, interval rule,
//     fully homogeneous platform (Theorem 16,
//     interval.MinLatencyGivenPeriodFullyHom).
//
// Each needs PeriodBounds of length len(Apps) and nil LatencyBounds; every
// other query, including the one-to-one cells of fully homogeneous
// platforms (their check reads Evaluate's periods) and every exact or
// heuristic fallback, keeps its raw key. The algorithms of these cells
// read application a's period bound B in one way only: fmath.LE(x, B) for
// cycle times x that matching.CycleTimes or interval.CycleTimes enumerate
// from the same expressions. For x >= 0, LE(x, B) is monotone in x, so the
// cycle times B admits are a prefix of a's sorted set (NaNs, which LE
// never admits, left out) and their count fixes the outcome of every
// comparison; two bounds with equal counts for every application therefore
// get the same answer bit for bit. The class key is a tag no raw key
// starts with, the objective, one count per application and the remaining
// query fields. A set may drop exact duplicates but never merges values
// within fmath.Eps: two cycle times the algorithm tells apart must count
// separately.
//
// A Plan is safe for concurrent use by any number of goroutines; every
// returned Result is an independent deep copy, so callers can mutate their
// mappings freely without corrupting the memo (the same aliasing guarantee
// the batch cache makes). Plans are themselves memoized across requests by
// the batch engine's plan tier (internal/batch.Cache); plans compiled there
// answer from one query memo shared by the whole cache (see CompileShared).
package plan

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algo/interval"
	"repro/internal/algo/matching"
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

	// cycles[a] holds every cycle time of application a the rule's
	// polynomial algorithms compare with a period bound, sorted ascending;
	// built on first use (see cycleTimes).
	cyclesOnce sync.Once
	cycles     [][]float64

	candsOnce sync.Once
	cands     []float64

	// memo holds the answered queries, keyed by id followed by the
	// query's canonical encoding. A plan from Compile owns a private memo;
	// CompileShared plans share a caller's.
	memo *memo.Memo[core.Packed]
	id   uint64

	queries, hits atomic.Int64
}

// keyPool recycles query-key scratch buffers across Solve calls (the
// per-query arena of the package docs).
var keyPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// lastID numbers the plans CompileShared builds. An id is never reused
// within a process, so no two plans ever share a query key.
var lastID atomic.Uint64

// Compile validates the instance once, clones it (the plan owns its copy:
// later caller mutations of inst cannot corrupt compiled state) and
// classifies the platform. The same inputs always compile to a plan whose
// queries are bit-identical to fresh core.Solve calls on the original
// instance.
func Compile(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (*Plan, error) {
	return CompileShared(inst, rule, model, memo.New[core.Packed](memoCap))
}

// CompileShared is Compile with the query memo supplied by the caller, so
// that many plans can answer from one bounded memo. Each plan gets an id
// of its own, unique within the process, and keys its queries by those 8
// bytes followed by the query encoding: plans sharing m never read each
// other's answers, and a stored query key stays small however large the
// instance. Compiling the same inputs again gives a new plan with a new
// id, which does not see the answers of its predecessor.
func CompileShared(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel, m *memo.Memo[core.Packed]) (*Plan, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		inst:  inst.Clone(),
		rule:  rule,
		model: model,
		memo:  m,
		id:    lastID.Add(1),
	}
	p.cls = p.inst.Platform.Classify()
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

// SolveCtx is Solve under the caller's context (see Answer).
func (p *Plan) SolveCtx(ctx context.Context, q Query) (core.Result, error) {
	res, err, _ := p.Answer(ctx, q)
	return res, err
}

// Answer is SolveCtx that also reports whether the memo answered: hit is
// true when the query key was already memoized or in flight, false when
// this call ran the solve.
//
// The call that installs a query's entry solves it on its own goroutine
// under ctx, so the solve stops when ctx ends and answers ctx's error
// (see core.SolvePrepared). Such an outcome is dropped from the memo
// before it is published: the callers already waiting ask again under
// their own contexts. A waiter whose own context ends returns its error.
func (p *Plan) Answer(ctx context.Context, q Query) (res core.Result, err error, hit bool) {
	p.queries.Add(1)
	for {
		e, hit := p.lookup(q)
		if !hit {
			res, err = p.run(ctx, e, q)
			return res, err, false
		}
		select {
		case <-e.Ready():
		case <-ctx.Done():
			select {
			case <-e.Ready(): // published as ctx ended: the answer wins
			default:
				return core.Result{}, ctx.Err(), true
			}
		}
		res, err = cloneStored(e.Wait())
		switch {
		case !isCtxErr(err):
			p.hits.Add(1)
			return res, err, true
		case ctx.Err() != nil:
			return core.Result{}, ctx.Err(), true
		}
		// Its caller's context stopped the solve: ask again under this one.
	}
}

// lookup finds or installs the single-flight memo entry for q. hit
// reports whether the entry was already present (the caller must then
// wait on it); on a miss the caller owns running the solve via run.
func (p *Plan) lookup(q Query) (e *memo.Entry[core.Packed], hit bool) {
	kp := keyPool.Get().(*[]byte)
	buf := binary.LittleEndian.AppendUint64((*kp)[:0], p.id)
	if p.boundClassed(q) {
		buf = p.appendClassKey(buf, q)
	} else {
		buf = appendQueryKey(buf, q)
	}
	e, hit = p.memo.Get(buf)
	*kp = buf
	keyPool.Put(kp)
	return e, hit
}

// run solves q under ctx for a freshly installed entry and publishes the
// result, dropping the entry from the memo first when ctx stopped the
// solve. A panic in the solver is published as the entry's error, so it
// stays confined to this plan's query.
func (p *Plan) run(ctx context.Context, e *memo.Entry[core.Packed], q Query) (core.Result, error) {
	e.Fill(func() (packed core.Packed, err error) {
		defer func() {
			if r := recover(); r != nil {
				packed, err = core.Packed{}, fmt.Errorf("plan: solve panicked: %v\n%s", r, debug.Stack())
			}
		}()
		res, err := core.SolvePrepared(ctx, &p.inst, p.cls, p.Request(q))
		if isCtxErr(err) {
			p.memo.Forget(e)
		}
		return res.Pack(), err
	})
	return cloneStored(e.Wait())
}

// isCtxErr reports whether err is a context's error: the solve that
// returned it was stopped, so the answer belongs to its caller alone and
// is never kept.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cloneStored hands out an independent copy of a memoized answer: the
// Result its packed form stands for (core.Packed.Unpack) and its error, so
// a memo's Wait can feed it directly.
func cloneStored(p core.Packed, err error) (core.Result, error) {
	return p.Unpack(), err
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
	}
}

// ParetoCandidates returns the exact candidate set of achievable weighted
// global period values for the plan's rule, computed once per plan and
// shared thereafter (read-only): every W_a times one of application a's
// cycle times (see cycleTimes). It is meaningful on the platform classes
// where the paper's bi-criteria sweeps are polynomial: interval mappings on
// fully homogeneous platforms and one-to-one mappings on communication
// homogeneous platforms.
func (p *Plan) ParetoCandidates() []float64 {
	p.candsOnce.Do(func() {
		var cands []float64
		for a, times := range p.cycleTimes() {
			w := p.inst.Apps[a].EffectiveWeight()
			for _, x := range times {
				cands = append(cands, w*x)
			}
		}
		p.cands = fmath.SortedUnique(cands)
	})
	return p.cands
}

// cycleTimes returns, per application, every cycle time the plan rule's
// polynomial algorithms compare with that application's period bound:
// every stage interval at every common speed for interval mappings
// (interval.CycleTimes), every stage at every processor speed for
// one-to-one mappings (matching.CycleTimes). Each set is sorted ascending
// without its NaNs; nothing is merged within fmath.Eps.
func (p *Plan) cycleTimes() [][]float64 {
	p.cyclesOnce.Do(func() {
		if p.rule == mapping.Interval {
			p.cycles = interval.CycleTimes(&p.inst, p.model)
		} else {
			p.cycles = matching.CycleTimes(&p.inst, p.model)
		}
		for a, times := range p.cycles {
			sort.Float64s(times)
			// NaNs (intervals over work sums that overflow) sort first;
			// LE admits them under no bound, so no count includes them.
			p.cycles[a] = times[sort.Search(len(times), func(i int) bool { return !math.IsNaN(times[i]) }):]
		}
	})
	return p.cycles
}

// boundClassed reports whether q is keyed by bound class: it is in one of
// the cells whose algorithm reads each period bound only through
// fmath.LE(cycle time, bound), for cycle times that cycleTimes enumerates
// (see the package docs).
func (p *Plan) boundClassed(q Query) bool {
	if q.PeriodBounds == nil || len(q.PeriodBounds) != len(p.inst.Apps) || q.LatencyBounds != nil {
		return false
	}
	switch {
	case q.Objective == core.Energy && p.rule == mapping.OneToOne:
		return p.cls != pipeline.FullyHeterogeneous // Theorem 19
	case q.Objective == core.Energy && p.rule == mapping.Interval, // Theorems 18, 21
		q.Objective == core.Latency && q.EnergyBudget <= 0 && p.rule == mapping.Interval: // Theorem 16
		return p.cls == pipeline.FullyHomogeneous
	}
	return false
}

// Query key tags: the first byte after the plan id tells a raw key
// from a bound-class key, so no two keys of different kinds are equal.
const (
	rawKey   byte = 0
	classKey byte = 1
)

// appendClassKey appends q's bound-class key: the objective, then for each
// application the number of its cycle times its period bound admits, then
// the remaining query fields as appendQueryKey writes them. LE(x, bound)
// is monotone in x, so the admitted cycle times are a prefix of the sorted
// set and the count fixes every comparison the algorithm makes.
func (p *Plan) appendClassKey(dst []byte, q Query) []byte {
	dst = append(dst, classKey)
	dst = binary.AppendVarint(dst, int64(q.Objective))
	for a, times := range p.cycleTimes() {
		bound := q.PeriodBounds[a]
		n := sort.Search(len(times), func(i int) bool { return !fmath.LE(times[i], bound) })
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return appendTuning(dst, q)
}

// appendQueryKey appends the query's raw key to dst: the rawKey tag, then
// a canonical binary encoding of the query, in which every field is
// written with an explicit presence/length tag so no two distinct queries
// share an encoding (floats as IEEE-754 bit patterns, integers as varints,
// which delimit themselves, nil slices distinguished from empty ones —
// "unconstrained" differs from "constrained by an empty array" to the
// solver's bound checks). A memo keeps every key it holds, so the
// encoding is kept short.
func appendQueryKey(dst []byte, q Query) []byte {
	dst = append(dst, rawKey)
	dst = binary.AppendVarint(dst, int64(q.Objective))
	dst = appendFloats(dst, q.PeriodBounds)
	dst = appendFloats(dst, q.LatencyBounds)
	return appendTuning(dst, q)
}

// appendTuning appends the query fields after its bounds: the energy
// budget and the fallbacks' tuning.
func appendTuning(dst []byte, q Query) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.EnergyBudget))
	dst = binary.AppendVarint(dst, q.ExactLimit)
	dst = binary.AppendVarint(dst, q.Seed)
	dst = binary.AppendVarint(dst, int64(q.HeurIters))
	dst = binary.AppendVarint(dst, int64(q.HeurRestarts))
	return dst
}

func appendFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}
