package batch

import (
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
//   - the plan tier maps each canonical (instance, rule, comm) triple to
//     its compiled plan (internal/plan), so every query on an instance —
//     a Pareto sweep, an experiment table, a batch with many queries per
//     instance — reuses one compilation;
//   - the result memo holds the answered queries of all those plans. Each
//     plan compiled here answers from it (plan.CompileShared), keyed by a
//     fixed-width digest of the plan key followed by the query encoding,
//     so a memoized answer is stored once and its key stays small however
//     large the instance. Each answer carries the plan key string of the
//     plan-tier entry that compiled its plan (shared, not copied), and a
//     hit counts only when that key equals the asking plan's: a plan whose
//     digest collides with another's solves without the memo, so no
//     answer rests on the digest alone. A repeated job is answered by a
//     plan-tier hit plus a result-memo hit.
//
// A cache built with NewCacheCap is bounded: each tier holds at most the
// configured number of entries and evicts its least recently used entry
// beyond it, so a shared cache can serve a long-running process without
// growing without bound.
//
// The zero value is not usable; call NewCache or NewCacheCap.
type Cache struct {
	results *memo.Memo[plan.Stored]
	plans   *memo.Memo[*plan.Plan]
}

// NewCache returns an empty, unbounded memoization cache.
func NewCache() *Cache { return NewCacheCap(0) }

// NewCacheCap returns an empty memoization cache whose result memo and plan
// tier each hold at most maxEntries keys, evicting the least recently used
// beyond it; a non-positive maxEntries means unbounded.
func NewCacheCap(maxEntries int) *Cache {
	return &Cache{
		results: memo.New[plan.Stored](maxEntries),
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
	k.planKey(inst, rule, model)
	e, hit := c.plans.Get(k.buf)
	k.release()
	if !hit {
		// The plan's stored answers carry the plan key; the entry's copy of
		// it is shared rather than copied again.
		e.Fill(func() (*plan.Plan, error) {
			return plan.CompileShared(inst, rule, model, c.results, e.Key())
		})
	}
	//lint:allow memoalias plans are immutable by construction; sharing is the point of the tier
	pl, err = e.Wait()
	return pl, err, hit
}
