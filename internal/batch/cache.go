package batch

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/pipeline"
	"repro/internal/plan"
)

// Cache memoizes solver work across Solve calls. It is safe for concurrent
// use and single-flights every computation: when several workers ask for
// the same thing at once, exactly one computes it and the others wait for
// its result. Hand the same Cache to successive batches (via Options.Cache)
// to reuse results across calls, e.g. between the points of two Pareto
// sweeps over overlapping candidate sets, or for the whole life of a server
// process.
//
// A Cache has two tiers, both internal/memo memos:
//
//   - the plan tier maps each (instance, rule, comm) triple to its
//     compiled plan (internal/plan), so every query on an instance — a
//     Pareto sweep, an experiment table, a batch with many queries per
//     instance — reuses one compilation. It holds two kinds of key, set
//     apart by a tag byte. Library callers (PlanFor, and Solve on jobs
//     without a plan) key a decoded instance by its canonical encoding
//     (PlanKey). Wire callers (PlanForJSON) key an instance document by
//     its compact bytes as sent, so a hit skips the decode, the
//     validation and the canonical key. Either key is the bytes
//     themselves, not a digest, so keys never collide. The two kinds never
//     share an entry: an instance asked for both ways is compiled twice
//     and its answers are memoized twice, and two documents of one
//     instance that differ in more than whitespace (key order, number
//     spelling) are two plans;
//   - the result memo holds the answered queries of all those plans. Each
//     plan compiled here answers from it (plan.CompileShared), keyed by
//     the plan's process-unique id followed by the query encoding, so a
//     plan's answers are its own and a key stays small however large the
//     instance. It keeps each answer packed (core.Packed), a fraction of
//     the Result's size, so a full memo costs little. A repeated job is answered by a plan-tier hit plus a
//     result-memo hit. A plan evicted from the plan tier and compiled
//     again is a new plan with a new id: its predecessor's answers are no
//     longer reached and age out of the result memo.
//
// A cache built with NewCacheCap is bounded: each tier holds at most the
// configured number of entries and evicts its least recently used entry
// beyond it, so a shared cache can serve a long-running process without
// growing without bound.
//
// The zero value is not usable; call NewCache or NewCacheCap.
type Cache struct {
	results *memo.Memo[core.Packed]
	plans   *memo.Memo[*plan.Plan]
}

// NewCache returns an empty, unbounded memoization cache.
func NewCache() *Cache { return NewCacheCap(0) }

// NewCacheCap returns an empty memoization cache whose result memo and plan
// tier each hold at most maxEntries keys, evicting the least recently used
// beyond it; a non-positive maxEntries means unbounded.
func NewCacheCap(maxEntries int) *Cache {
	return &Cache{
		results: memo.New[core.Packed](maxEntries),
		plans:   memo.New[*plan.Plan](maxEntries),
	}
}

// Cap returns the configured entry cap (0 = unbounded).
func (c *Cache) Cap() int { return c.results.Stats().Cap }

// Len returns the number of memoized results (including in-flight ones).
func (c *Cache) Len() int { return c.results.Len() }

// CacheStats is a point-in-time snapshot of a Cache's counters. The result
// memo's counters are embedded (Entries, Cap, Hits, Misses, Evictions,
// HitRate); Plans holds the plan tier's.
type CacheStats struct {
	memo.Stats
	Plans memo.Stats
}

// Stats returns a snapshot of both tiers' counters. The tiers are sampled
// one after the other, so under concurrent traffic the pair is approximate
// (each tier's snapshot is itself consistent).
func (c *Cache) Stats() CacheStats {
	return CacheStats{Stats: c.results.Stats(), Plans: c.plans.Stats()}
}

// PlanFor returns the compiled plan for (inst, rule, model), compiling it
// on first arrival; concurrent requests for the same key wait for the one
// in-flight compilation. hit reports whether an existing (possibly
// in-flight) plan was reused. The returned *Plan is shared — plans are
// immutable and safe for concurrent use, so no copy is needed — and answers
// its queries from the cache's result memo. A compilation failure (invalid
// instance) is memoized like a result and returned to every waiter.
func (c *Cache) PlanFor(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (pl *plan.Plan, err error, hit bool) {
	k := keyPool.Get().(*keyWriter)
	defer k.release()
	k.planKey(inst, rule, model)
	return c.plan(k.buf, inst, rule, model)
}

// PlanForJSON is PlanFor for an instance document as sent (doc must be a
// valid JSON value, as a decoder hands out a json.RawMessage). It keys
// the plan tier by the document's compact bytes, so a published plan is
// returned without decoding anything. Otherwise it decodes and validates
// the document (pipeline.DecodeJSON) before it looks again, installing
// the plan: a document that is not a valid instance returns DecodeJSON's
// error and leaves the tier untouched — no entry, no eviction, no count.
// The plan's Instance is the decoded instance.
func (c *Cache) PlanForJSON(doc []byte, rule mapping.Rule, model pipeline.CommModel) (pl *plan.Plan, err error, hit bool) {
	k := keyPool.Get().(*keyWriter)
	defer k.release()
	k.wirePlanKey(doc, rule, model)
	if e, ok := c.plans.Published(k.buf); ok {
		pl, err = wait(e)
		return pl, err, true
	}
	inst, err := pipeline.DecodeJSON(bytes.NewReader(doc))
	if err != nil {
		return nil, err, false
	}
	return c.plan(k.buf, &inst, rule, model)
}

// plan returns the plan-tier entry for key, compiling (inst, rule, model)
// into it on first arrival.
func (c *Cache) plan(key []byte, inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) (pl *plan.Plan, err error, hit bool) {
	e, hit := c.plans.Get(key)
	if !hit {
		e.Fill(func() (*plan.Plan, error) {
			return plan.CompileShared(inst, rule, model, c.results)
		})
	}
	pl, err = wait(e)
	return pl, err, hit
}

// wait returns the plan an entry of the plan tier publishes.
func wait(e *memo.Entry[*plan.Plan]) (*plan.Plan, error) {
	//lint:allow memoalias plans are immutable by construction; sharing is the point of the tier
	return e.Wait()
}
