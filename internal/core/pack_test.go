package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mapping"
)

// TestPackRoundTrip checks Unpack gives back a Result reflect.DeepEqual to
// the packed one, float bits and slice nil-ness included, laid out so an
// append to one slice never reaches its neighbour.
func TestPackRoundTrip(t *testing.T) {
	for _, r := range []Result{
		{},
		{Method: MethodHeuristic, Degraded: true, LowerBound: 1.5},
		{Value: 2, Mapping: mapping.Mapping{Apps: []mapping.AppMapping{}}, Metrics: mapping.Metrics{AppPeriods: []float64{}}},
		{Metrics: mapping.Metrics{AppLatencies: []float64{math.Inf(1)}}},
		{Mapping: mapping.Mapping{Apps: []mapping.AppMapping{{Intervals: []mapping.PlacedInterval{{From: 0, To: 127, Proc: -128, Mode: 2}}}}}},
		{Mapping: mapping.Mapping{Apps: []mapping.AppMapping{{Intervals: []mapping.PlacedInterval{{From: 128, To: 300, Proc: 7}}}}}},
		{Mapping: mapping.Mapping{Apps: []mapping.AppMapping{{}, {Intervals: []mapping.PlacedInterval{{To: 1 << 20}, {Mode: -1 << 31}}}}}},
		{
			Value:    math.Copysign(0, -1),
			Method:   Method("a method no constant names"),
			Optimal:  true,
			Degraded: true,
			Mapping: mapping.Mapping{Apps: []mapping.AppMapping{
				{Intervals: []mapping.PlacedInterval{{From: 0, To: 1, Proc: 2, Mode: 1}, {From: 2, To: 300, Proc: 0}}},
				{},
				{Intervals: []mapping.PlacedInterval{}},
				{Intervals: []mapping.PlacedInterval{{Proc: -1, Mode: math.MaxInt}, {From: math.MinInt}}},
			}},
			Metrics: mapping.Metrics{
				Period: math.NaN(), Latency: 1e300, Energy: -7,
				AppPeriods: []float64{1, 2, 3, 4}, AppLatencies: []float64{5, 6, 7, 8},
			},
		},
	} {
		u := r.Pack().Unpack()
		if !sameBits(u, r) {
			t.Fatalf("unpacked %+v, want %+v", u, r)
		}
		if len(u.Mapping.Apps) == 4 {
			u.Mapping.Apps[0].Intervals = append(u.Mapping.Apps[0].Intervals, mapping.PlacedInterval{Proc: -2})
			u.Metrics.AppPeriods = append(u.Metrics.AppPeriods, -2)
			if u.Mapping.Apps[3].Intervals[0].Proc != -1 || u.Metrics.AppLatencies[0] != 5 {
				t.Fatalf("append to an unpacked slice spilled into its neighbour: %+v", u)
			}
		}
	}
}

// TestPackCoversResult fails when Result gains a field, which Pack and
// Unpack must then learn to carry.
func TestPackCoversResult(t *testing.T) {
	want := []string{"Mapping", "Value", "Metrics", "Method", "Optimal", "Degraded", "LowerBound"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Result{})) {
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Result fields %v, Pack carries %v", got, want)
	}
	if n := reflect.TypeOf(mapping.Metrics{}).NumField(); n != 5 {
		t.Fatalf("mapping.Metrics has %d fields, Pack carries 5", n)
	}
	if n := reflect.TypeOf(mapping.PlacedInterval{}).NumField(); n != 4 {
		t.Fatalf("mapping.PlacedInterval has %d fields, Pack carries 4", n)
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself and -0 differs from 0.
func sameBits(a, b Result) bool {
	fa, fb := resultFloats(a), resultFloats(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	a.Value, a.Metrics.Period, a.Metrics.Latency, a.Metrics.Energy, a.LowerBound = 0, 0, 0, 0, 0
	b.Value, b.Metrics.Period, b.Metrics.Latency, b.Metrics.Energy, b.LowerBound = 0, 0, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

func resultFloats(r Result) []float64 {
	xs := []float64{r.Value, r.Metrics.Period, r.Metrics.Latency, r.Metrics.Energy, r.LowerBound}
	xs = append(xs, r.Metrics.AppPeriods...)
	return append(xs, r.Metrics.AppLatencies...)
}
