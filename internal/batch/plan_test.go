package batch

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestPlanTierSingleFlight asserts the cache's plan tier compiles each
// distinct (instance, rule, comm) triple exactly once under concurrent
// demand and shares the one plan.
func TestPlanTierSingleFlight(t *testing.T) {
	inst := pipeline.MotivatingExample()
	c := NewCache()
	const goroutines = 16
	var wg sync.WaitGroup
	plans := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pl, err, _ := c.PlanFor(&inst, mapping.Interval, pipeline.Overlap)
			if err != nil {
				t.Errorf("PlanFor: %v", err)
				return
			}
			plans[g] = pl
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if plans[g] != plans[0] {
			t.Fatalf("goroutine %d received a different plan object", g)
		}
	}
	st := c.Stats().Plans
	if st.Entries != 1 {
		t.Errorf("plan tier Entries = %d, want 1", st.Entries)
	}
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("plan tier hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, goroutines-1)
	}
	if got := st.HitRate(); got <= 0.9 {
		t.Errorf("plan tier HitRate = %g, want > 0.9", got)
	}
}

// TestPlanTierCompileError asserts an invalid instance's compilation error
// is memoized and returned to every caller, like a memoized result error.
func TestPlanTierCompileError(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Apps[0].Stages[0].Work = -1
	c := NewCache()
	for i := 0; i < 2; i++ {
		pl, err, hit := c.PlanFor(&inst, mapping.Interval, pipeline.Overlap)
		if err == nil || pl != nil {
			t.Fatalf("call %d: PlanFor accepted an invalid instance (plan %v)", i, pl)
		}
		if hit != (i == 1) {
			t.Errorf("call %d: hit = %v", i, hit)
		}
	}
}

// TestPlanTierEviction bounds the plan tier: flooding a capped cache with
// distinct instances must evict, never exceed the cap.
func TestPlanTierEviction(t *testing.T) {
	const cap = 3
	c := NewCacheCap(cap)
	for i := 0; i < 2*cap; i++ {
		inst := pipeline.MotivatingExample()
		inst.Apps[0].Weight = float64(i + 1) // distinct canonical keys
		if _, err, _ := c.PlanFor(&inst, mapping.Interval, pipeline.Overlap); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	st := c.Stats().Plans
	if st.Entries > cap {
		t.Errorf("plan tier Entries = %d, want <= %d", st.Entries, cap)
	}
	if st.Evictions != cap {
		t.Errorf("plan tier Evictions = %d, want %d", st.Evictions, cap)
	}
}

// TestBatchPlanStats asserts a batch over one instance compiles exactly one
// plan and that later batches sharing the cache reuse it, with the counts
// surfaced in Stats.
func TestBatchPlanStats(t *testing.T) {
	inst := pipeline.MotivatingExample()
	jobs := []Job{
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}},
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Latency}},
		{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Energy,
			PeriodBounds: core.UniformBounds(&inst, 2)}},
	}
	c := NewCache()
	_, stats := Solve(jobs, Options{Cache: c})
	if stats.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", stats.Errors)
	}
	if stats.PlanCompiles != 1 || stats.PlanReuses != len(jobs)-1 {
		t.Errorf("first batch PlanCompiles/PlanReuses = %d/%d, want 1/%d",
			stats.PlanCompiles, stats.PlanReuses, len(jobs)-1)
	}
	// A new query on the same instance through the same cache: the plan is
	// already there, so no compilation at all.
	more := []Job{{Inst: &inst, Req: core.Request{Rule: mapping.Interval, Model: pipeline.Overlap,
		Objective: core.Energy, PeriodBounds: core.UniformBounds(&inst, 3)}}}
	_, stats = Solve(more, Options{Cache: c})
	if stats.PlanCompiles != 0 || stats.PlanReuses != 1 {
		t.Errorf("second batch PlanCompiles/PlanReuses = %d/%d, want 0/1",
			stats.PlanCompiles, stats.PlanReuses)
	}
	// Repeating the whole first batch is answered by the cached plan's
	// memoized queries: every job reuses the plan and hits the result memo,
	// and no result is stored twice.
	entries := c.Len()
	_, stats = Solve(jobs, Options{Cache: c})
	if stats.CacheHits != len(jobs) {
		t.Errorf("repeat batch CacheHits = %d, want %d", stats.CacheHits, len(jobs))
	}
	if stats.PlanCompiles != 0 || stats.PlanReuses != len(jobs) {
		t.Errorf("repeat batch PlanCompiles/PlanReuses = %d/%d, want 0/%d",
			stats.PlanCompiles, stats.PlanReuses, len(jobs))
	}
	if got := c.Len(); got != entries || got != len(jobs)+1 {
		t.Errorf("result memo holds %d entries (%d before the repeat), want %d: one per distinct job",
			got, entries, len(jobs)+1)
	}
}

// TestBatchPlanValidationError asserts an invalid instance surfaces the
// same validation error through the planned batch path as a direct solve.
func TestBatchPlanValidationError(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Apps[0].Stages[0].Work = -1
	req := core.Request{Rule: mapping.Interval, Model: pipeline.Overlap, Objective: core.Period}
	_, want := core.Solve(&inst, req)
	if want == nil {
		t.Fatal("core.Solve accepted an invalid instance")
	}
	results, stats := Solve([]Job{{Inst: &inst, Req: req}}, Options{})
	if stats.Errors != 1 || results[0].Err == nil {
		t.Fatalf("batch did not surface the validation error: %+v", results[0])
	}
	if !strings.Contains(results[0].Err.Error(), want.Error()) {
		t.Errorf("batch error %q does not carry the validation error %q", results[0].Err, want)
	}
}

// fig1Doc is the Section 2 instance as an indented JSON document.
func fig1Doc(t *testing.T) []byte {
	t.Helper()
	inst := pipeline.MotivatingExample()
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanForJSONKeys pins the wire keys of the plan tier: documents that
// differ only in whitespace share one plan, a different rule, model or
// byte does not, and a wire key never shares an entry with the canonical
// key of the same instance.
func TestPlanForJSONKeys(t *testing.T) {
	doc := fig1Doc(t)
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	spaced := bytes.ReplaceAll(compact.Bytes(), []byte(","), []byte(" ,\n\t"))
	c := NewCache()
	first, err, hit := c.PlanForJSON(doc, mapping.Interval, pipeline.Overlap)
	if err != nil || hit {
		t.Fatalf("first lookup: hit %v, err %v", hit, err)
	}
	want := pipeline.MotivatingExample()
	if !reflect.DeepEqual(*first.Instance(), want) {
		t.Errorf("plan instance %+v, want %+v", *first.Instance(), want)
	}
	for _, variant := range [][]byte{compact.Bytes(), spaced, doc} {
		pl, err, hit := c.PlanForJSON(variant, mapping.Interval, pipeline.Overlap)
		if err != nil || !hit || pl != first {
			t.Errorf("whitespace variant %.40q: hit %v, same plan %v, err %v", variant, hit, pl == first, err)
		}
	}
	// 1.0 decodes as 1 does, but the bytes differ.
	respelled := bytes.Replace(compact.Bytes(), []byte(`"weight":1,`), []byte(`"weight":1.0,`), 1)
	if bytes.Equal(respelled, compact.Bytes()) {
		t.Fatal("no weight to respell")
	}
	for _, k := range []struct {
		doc   []byte
		rule  mapping.Rule
		model pipeline.CommModel
	}{
		{doc, mapping.OneToOne, pipeline.Overlap},
		{doc, mapping.Interval, pipeline.NoOverlap},
		{respelled, mapping.Interval, pipeline.Overlap},
	} {
		if _, err, hit := c.PlanForJSON(k.doc, k.rule, k.model); err != nil || hit {
			t.Errorf("%v/%v %.40q: hit %v, err %v; want a new plan", k.rule, k.model, k.doc, hit, err)
		}
	}
	pl, err, hit := c.PlanFor(&want, mapping.Interval, pipeline.Overlap)
	if err != nil || hit || pl == first {
		t.Errorf("canonical lookup of the same instance: hit %v, same plan %v, err %v; want its own entry", hit, pl == first, err)
	}
	if got := c.Stats().Plans.Entries; got != 5 {
		t.Errorf("plan tier holds %d entries, want 5", got)
	}
}

// TestPlanForJSONInvalidNotKept asserts a document that does not decode to
// a valid instance returns DecodeJSON's error and leaves a full plan tier
// as it was — no entry, no eviction, no count — so the next lookup
// decodes it again.
func TestPlanForJSONInvalidNotKept(t *testing.T) {
	c := NewCacheCap(2)
	for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
		if _, err, _ := c.PlanForJSON(fig1Doc(t), mapping.Interval, model); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Plans
	for _, doc := range []string{
		`{"apps": [{"in": 1, "stages": [{"work": -1, "out": 1}]}], "platform": {"processors": [{"speeds": [1]}]}}`,
		`5`,
		`{"apps": [], "extra": 1}`,
	} {
		_, want := pipeline.DecodeJSON(strings.NewReader(doc))
		for i := 0; i < 2; i++ {
			pl, err, hit := c.PlanForJSON([]byte(doc), mapping.Interval, pipeline.Overlap)
			if pl != nil || err == nil || err.Error() != want.Error() || hit {
				t.Errorf("%s (call %d): plan %v, hit %v, err %v; want DecodeJSON's error %v", doc, i, pl, hit, err, want)
			}
		}
	}
	if after := c.Stats().Plans; after != before {
		t.Errorf("invalid documents moved the plan tier's stats from %+v to %+v", before, after)
	}
}
