package jobspec

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/fmath"
)

// fillDistinct sets every field of the struct v points to a value
// distinct per field and per base: integers to base·(i+1), floats to
// base·(i+1)+0.5, maps to one key shared by every document plus one key
// of this document's own.
func fillDistinct(v any, base int64) {
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		f := s.Field(i)
		n := base * int64(i+1)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(n)
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.5)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			elem := f.Type().Elem()
			m.SetMapIndex(reflect.ValueOf("shared"), reflect.ValueOf(n).Convert(elem))
			m.SetMapIndex(reflect.ValueOf(fmt.Sprint("own-", base)), reflect.ValueOf(n+1).Convert(elem))
			f.Set(m)
		}
	}
}

// checkMerged asserts got is the merge of a and b field by field:
// integers are the exact sums, maps the key-by-key sums, and each float
// field equals floatWant(name). A field of any other kind, or a float
// field floatWant does not know, fails the test — so a field added to
// the schema must be taught to this test, which in turn catches it being
// left out of Merge.
func checkMerged[T any](t *testing.T, a, b, got T, floatWant func(name string) (float64, bool)) {
	t.Helper()
	va, vb, vg := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(got)
	for i := 0; i < vg.NumField(); i++ {
		name := vg.Type().Field(i).Name
		fa, fb, fg := va.Field(i), vb.Field(i), vg.Field(i)
		switch fg.Kind() {
		case reflect.Int, reflect.Int64:
			if fg.Int() != fa.Int()+fb.Int() {
				t.Errorf("%s = %d, want %d + %d", name, fg.Int(), fa.Int(), fb.Int())
			}
		case reflect.Map:
			want := make(map[string]int64)
			for _, m := range []reflect.Value{fa, fb} {
				for it := m.MapRange(); it.Next(); {
					want[it.Key().String()] += it.Value().Int()
				}
			}
			if fg.Len() != len(want) {
				t.Errorf("%s has %d keys, want %d (%v)", name, fg.Len(), len(want), want)
			}
			for k, n := range want {
				if v := fg.MapIndex(reflect.ValueOf(k)); !v.IsValid() || v.Int() != n {
					t.Errorf("%s[%q] = %v, want %d", name, k, v, n)
				}
			}
		case reflect.Float64:
			want, ok := floatWant(name)
			if !ok {
				t.Errorf("float field %s: this test does not know how it merges", name)
			} else if !fmath.EQ(fg.Float(), want) {
				t.Errorf("%s = %g, want %g", name, fg.Float(), want)
			}
		default:
			t.Errorf("field %s has kind %s, which this test does not know how to merge", name, fg.Kind())
		}
	}
}

// TestServiceStatsMerge is the regression guard for the /stats merge:
// every counter and gauge sums exactly, the maps merge key by key, and
// both rates are recomputed from the summed hits and misses — never
// summed, averaged or carried over. Merging into a zero document (the
// gateway's starting point) must copy the source.
func TestServiceStatsMerge(t *testing.T) {
	var a, b ServiceStats
	fillDistinct(&a, 1)
	fillDistinct(&b, 1000)
	for _, c := range []struct {
		name string
		a, b ServiceStats
	}{{"a+b", a, b}, {"zero+a", ServiceStats{}, a}} {
		t.Run(c.name, func(t *testing.T) {
			got := c.a
			got.Requests, got.Methods = maps.Clone(c.a.Requests), maps.Clone(c.a.Methods)
			got.Merge(c.b)
			rates := map[string]float64{
				"HitRate":     float64(got.CacheHits) / float64(got.CacheHits+got.CacheMisses),
				"PlanHitRate": float64(got.PlanHits) / float64(got.PlanHits+got.PlanMisses),
			}
			checkMerged(t, c.a, c.b, got, func(name string) (float64, bool) {
				r, ok := rates[name]
				return r, ok
			})
		})
	}
}

// TestStatsMerge gives the per-batch statistics the same guard: counters
// and per-method counts sum, and the wall time of concurrent sub-batches
// is the longest one.
func TestStatsMerge(t *testing.T) {
	var a, b Stats
	fillDistinct(&a, 1)
	fillDistinct(&b, 1000)
	got := a
	got.Methods = maps.Clone(a.Methods)
	got.Merge(b)
	checkMerged(t, a, b, got, func(name string) (float64, bool) {
		return max(a.WallMs, b.WallMs), name == "WallMs"
	})
}
