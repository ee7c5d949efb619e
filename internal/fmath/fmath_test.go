package fmath

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestComparisons(t *testing.T) {
	cases := []struct {
		a, b                 float64
		eq, le, ge, ltS, gtS bool
	}{
		{1, 1, true, true, true, false, false},
		{1, 1 + 1e-12, true, true, true, false, false},
		{1, 2, false, true, false, true, false},
		{2, 1, false, false, true, false, true},
		{0, 0, true, true, true, false, false},
		{0, 1e-12, true, true, true, false, false},
		{1e9, 1e9 * (1 + 1e-12), true, true, true, false, false},
		{1e9, 2e9, false, true, false, true, false},
		{-1, 1, false, true, false, true, false},
	}
	for _, c := range cases {
		if EQ(c.a, c.b) != c.eq {
			t.Errorf("EQ(%g,%g) = %v, want %v", c.a, c.b, EQ(c.a, c.b), c.eq)
		}
		if LE(c.a, c.b) != c.le {
			t.Errorf("LE(%g,%g) = %v, want %v", c.a, c.b, LE(c.a, c.b), c.le)
		}
		if GE(c.a, c.b) != c.ge {
			t.Errorf("GE(%g,%g) = %v, want %v", c.a, c.b, GE(c.a, c.b), c.ge)
		}
		if LT(c.a, c.b) != c.ltS {
			t.Errorf("LT(%g,%g) = %v, want %v", c.a, c.b, LT(c.a, c.b), c.ltS)
		}
		if GT(c.a, c.b) != c.gtS {
			t.Errorf("GT(%g,%g) = %v, want %v", c.a, c.b, GT(c.a, c.b), c.gtS)
		}
	}
}

func TestComparisonProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		// Exactly one of LT, EQ, GT (trichotomy under tolerance).
		n := 0
		if LT(a, b) {
			n++
		}
		if EQ(a, b) {
			n++
		}
		if GT(a, b) {
			n++
		}
		if n != 1 {
			return false
		}
		// LE = LT or EQ; GE = GT or EQ.
		return LE(a, b) == (LT(a, b) || EQ(a, b)) && GE(a, b) == (GT(a, b) || EQ(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortedUnique(t *testing.T) {
	got := SortedUnique([]float64{3, 1, 2, 1, 3, 3})
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("SortedUnique = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedUnique = %v, want %v", got, want)
		}
	}
	if out := SortedUnique(nil); len(out) != 0 {
		t.Error("SortedUnique(nil) not empty")
	}
	// Near-duplicates within tolerance collapse.
	out := SortedUnique([]float64{1, 1 + 1e-13, 2})
	if len(out) != 2 {
		t.Errorf("near-duplicates kept: %v", out)
	}
}

func TestSortedUniqueRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(40)) // force duplicates
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		got := SortedUnique(xs)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: not strictly increasing: %v", trial, got)
			}
		}
		// Every reference value appears.
		for _, v := range ref {
			found := false
			for _, g := range got {
				if EQ(g, v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: value %g missing from %v", trial, v, got)
			}
		}
	}
}

func TestSortedUniqueLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	got := SortedUnique(xs)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("large sort failed")
		}
	}
}

func TestInfinityComparisons(t *testing.T) {
	inf := math.Inf(1)
	if EQ(1, inf) || EQ(inf, 1) || EQ(inf, math.Inf(-1)) {
		t.Error("finite/infinite values compared equal")
	}
	if !EQ(inf, inf) {
		t.Error("equal infinities not equal")
	}
	if !LT(1, inf) || !GT(inf, 1) {
		t.Error("strict comparisons against infinity broken")
	}
}

// TestMaxIsMathMax pins Max to math.Max bit for bit over every pair of
// special and ordinary values: signed zeros, NaN, infinities, subnormals.
func TestMaxIsMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.75,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, x := range vals {
		for _, y := range vals {
			if got, want := Max(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Max(%g, %g) = %g (%#x), math.Max = %g (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
