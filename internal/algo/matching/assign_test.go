package matching

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refAssign is Assign as it was written before it copied the matrix into a
// flat clamped slice and reused its per-row scratch: the reference the
// current Assign must match exactly, ties included.
func refAssign(cost [][]float64) (asg []int, total float64, ok bool) {
	n := len(cost)
	if n == 0 {
		return nil, 0, true
	}
	m := len(cost[0])
	if n > m {
		return nil, 0, false
	}
	at := func(i, j int) float64 {
		c := cost[i][j]
		if math.IsInf(c, 1) || c >= forbidden {
			return forbidden
		}
		return c
	}
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	rowOf := make([]int, m+1)
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		rowOf[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := rowOf[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := at(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[rowOf[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if rowOf[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			rowOf[j0] = rowOf[j1]
			j0 = j1
		}
	}
	asg = make([]int, n)
	for j := 1; j <= m; j++ {
		if rowOf[j] > 0 {
			asg[rowOf[j]-1] = j - 1
		}
	}
	total = 0
	for i := range asg {
		c := at(i, asg[i])
		if c >= forbidden/2 {
			return nil, 0, false
		}
		total += c
	}
	return asg, total, true
}

// randomCostMatrix draws an n x m matrix over a few distinct values, so
// ties are common; each entry is inadmissible (+Inf, forbidden or more)
// with probability inadmissible.
func randomCostMatrix(rng *rand.Rand, n, m int, inadmissible float64) [][]float64 {
	bad := []float64{math.Inf(1), forbidden, 3 * forbidden}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			if rng.Float64() < inadmissible {
				cost[i][j] = bad[rng.Intn(len(bad))]
			} else {
				cost[i][j] = float64(rng.Intn(6)) + 0.5*float64(rng.Intn(2)) + 1e-3*float64(rng.Intn(2))
			}
		}
	}
	return cost
}

// TestAssignMatchesReference: on random matrices with ties, +Inf and
// forbidden entries, Assign returns the reference's assignment, total bits
// and feasibility.
func TestAssignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1503))
	infeasible := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(9)
		m := n + rng.Intn(3)
		cost := randomCostMatrix(rng, n, m, []float64{0.05, 0.3, 0.6}[trial%3])
		asg, total, ok := Assign(cost)
		wasg, wtotal, wok := refAssign(cost)
		if ok != wok || math.Float64bits(total) != math.Float64bits(wtotal) || !reflect.DeepEqual(asg, wasg) {
			t.Fatalf("trial %d (%dx%d): (%v %v %v), reference (%v %v %v)", trial, n, m, asg, total, ok, wasg, wtotal, wok)
		}
		if !ok {
			infeasible++
		}
	}
	if infeasible < 100 || infeasible > 1500 {
		t.Errorf("%d of 2000 matrices infeasible; want a mix", infeasible)
	}
}

// BenchmarkAssign times one 45 x 47 assignment, the size of a one-to-one
// energy query on three 15-stage applications.
func BenchmarkAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(1504))
	cost := randomCostMatrix(rng, 45, 47, 0.05)
	b.ReportAllocs()
	for b.Loop() {
		Assign(cost)
	}
}
