// Package fmath provides tolerant floating-point comparisons used across the
// solvers. All optimization algorithms in this repository binary-search over
// exact candidate value sets, so tolerances only have to absorb round-off
// noise, never modelling error.
package fmath

import (
	"math"
	"sort"
)

// Eps is the relative tolerance used by the comparison helpers.
const Eps = 1e-9

// EQ reports whether a and b are equal within a relative tolerance of Eps
// (absolute near zero).
func EQ(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities (Inf <= Eps*Inf would lie)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= Eps*scale
}

// LE reports whether a <= b within tolerance.
func LE(a, b float64) bool { return a < b || EQ(a, b) }

// GE reports whether a >= b within tolerance.
func GE(a, b float64) bool { return a > b || EQ(a, b) }

// LT reports whether a < b strictly, i.e. not within tolerance of equality.
func LT(a, b float64) bool { return a < b && !EQ(a, b) }

// GT reports whether a > b strictly, i.e. not within tolerance of equality.
func GT(a, b float64) bool { return a > b && !EQ(a, b) }

// Max returns the larger of x and y, bit for bit what math.Max returns.
// It decides a strict order with one comparison and leaves only ties,
// NaNs and signed zeros to math.Max, so unlike math.Max, which is not
// inlined on amd64, it inlines into the solvers' inner loops.
func Max(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// SortedUnique sorts xs ascending in place and removes values that are equal
// within tolerance, returning the deduplicated prefix. It is used to build
// candidate sets for the binary searches of Theorems 1, 12 and 15.
func SortedUnique(xs []float64) []float64 {
	if len(xs) == 0 {
		return xs
	}
	// Insertion-free: use sort via simple slice sort.
	quickSort(xs, 0, len(xs)-1)
	out := xs[:1]
	for _, x := range xs[1:] {
		if !EQ(out[len(out)-1], x) {
			out = append(out, x)
		}
	}
	return out
}

// Percentile returns the pth (0..1) percentile of xs by nearest rank, or
// 0 for an empty sample. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}

func quickSort(xs []float64, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		// Median-of-three pivot.
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Recurse on the smaller half to bound stack depth.
		if j-lo < hi-i {
			quickSort(xs, lo, j)
			lo = i
		} else {
			quickSort(xs, i, hi)
			hi = j
		}
	}
}
