package npc

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algo/exact"
	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

func TestThreePartitionSolvers(t *testing.T) {
	cases := []struct {
		tp       ThreePartition
		triples  bool
		groups   bool
		strictOK bool
	}{
		{ThreePartition{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}, true, true, false},
		// {5,5} and {5,1,2,2} form groups of 10, but no triple partition.
		{ThreePartition{B: 10, Items: []int{5, 5, 5, 1, 2, 2}}, false, true, false},
		// No subset at all sums to 10 (3a+5b = 10 has no solution here).
		{ThreePartition{B: 10, Items: []int{3, 3, 3, 3, 3, 5}}, false, false, false},
		{ThreePartition{B: 12, Items: []int{4, 4, 4, 4, 4, 4}}, true, true, true},
		// Strict window, but 9 cannot join any triple summing to 20.
		{ThreePartition{B: 20, Items: []int{9, 6, 6, 6, 6, 7}}, false, false, true},
		{ThreePartition{B: 15, Items: []int{4, 5, 6, 4, 5, 6, 4, 5, 6}}, true, true, true},
	}
	for i, c := range cases {
		if err := c.tp.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := c.tp.Strict(); got != c.strictOK {
			t.Errorf("case %d: Strict() = %v, want %v", i, got, c.strictOK)
		}
		triples, ok := c.tp.SolveTriples()
		if ok != c.triples {
			t.Errorf("case %d: SolveTriples = %v, want %v", i, ok, c.triples)
		}
		if ok {
			for _, tr := range triples {
				if c.tp.Items[tr[0]]+c.tp.Items[tr[1]]+c.tp.Items[tr[2]] != c.tp.B {
					t.Errorf("case %d: triple %v does not sum to B", i, tr)
				}
			}
			if len(triples) != c.tp.M() {
				t.Errorf("case %d: %d triples, want %d", i, len(triples), c.tp.M())
			}
		}
		groups, ok := c.tp.SolveGroups()
		if ok != c.groups {
			t.Errorf("case %d: SolveGroups = %v, want %v", i, ok, c.groups)
		}
		if ok {
			seen := map[int]bool{}
			for _, g := range groups {
				sum := 0
				for _, idx := range g {
					if seen[idx] {
						t.Errorf("case %d: item %d reused", i, idx)
					}
					seen[idx] = true
					sum += c.tp.Items[idx]
				}
				if sum != c.tp.B {
					t.Errorf("case %d: group %v sums to %d", i, g, sum)
				}
			}
			if len(seen) != len(c.tp.Items) {
				t.Errorf("case %d: partition incomplete", i)
			}
		}
	}
	bad := ThreePartition{B: 5, Items: []int{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestTwoPartitionSolver(t *testing.T) {
	cases := []struct {
		items []int
		ok    bool
	}{
		{[]int{1, 2, 3}, true},      // {1,2} vs {3}
		{[]int{2, 3, 4, 5}, true},   // {2,5} vs {3,4}
		{[]int{1, 1, 1}, false},     // odd sum
		{[]int{1, 2, 4, 16}, false}, // no equal split
		{[]int{3, 1, 1, 2, 2, 1}, true},
	}
	for i, c := range cases {
		in, ok := TwoPartition{Items: c.items}.Solve()
		if ok != c.ok {
			t.Errorf("case %d: Solve = %v, want %v", i, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		sum, total := 0, 0
		for j, a := range c.items {
			total += a
			if in[j] {
				sum += a
			}
		}
		if 2*sum != total {
			t.Errorf("case %d: subset sums to %d of %d", i, sum, total)
		}
	}
}

// TestTheorem5Equivalence: the encoded scheduling instance has an interval
// mapping of period <= 1 iff the items admit an exact-B group partition.
func TestTheorem5Equivalence(t *testing.T) {
	cases := []ThreePartition{
		{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}, // solvable
		{B: 10, Items: []int{5, 5, 5, 1, 2, 2}}, // unsolvable
		{B: 12, Items: []int{4, 4, 4, 4, 4, 4}}, // solvable, strict
		{B: 6, Items: []int{2, 2, 2, 1, 2, 3}},  // solvable
		{B: 6, Items: []int{5, 1, 3, 1, 1, 1}},  // {5,1},{3,1,1,1}: solvable
	}
	for i, tp := range cases {
		if err := tp.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		inst := EncodePeriodInterval(tp)
		sol, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		_, partitionable := tp.SolveGroups()
		periodOne := fmath.LE(sol.Value, 1)
		if periodOne != partitionable {
			t.Errorf("case %d: period<=1 is %v but partitionable is %v (period %g)", i, periodOne, partitionable, sol.Value)
		}
		if periodOne {
			groups := DecodePeriodInterval(&sol.Mapping)
			for _, g := range groups {
				sum := 0
				for _, idx := range g {
					sum += tp.Items[idx]
				}
				if sum < tp.B {
					t.Errorf("case %d: decoded group %v sums to %d < B", i, g, sum)
				}
			}
		}
	}
}

// TestTheorem6WeightedEquivalence: the weighted variant scales works by
// 1/W_a and asks for weighted period 1.
func TestTheorem6WeightedEquivalence(t *testing.T) {
	tp := ThreePartition{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}
	inst := EncodePeriodIntervalWeighted(tp, []float64{2, 0.5})
	sol, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
	if err != nil {
		t.Fatal(err)
	}
	if !fmath.LE(sol.Value, 1) {
		t.Errorf("weighted period = %g, want <= 1", sol.Value)
	}
	bad := ThreePartition{B: 10, Items: []int{3, 3, 3, 3, 3, 5}}
	inst = EncodePeriodIntervalWeighted(bad, []float64{2, 0.5})
	sol, err = exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Period, Model: pipeline.Overlap})
	if err != nil {
		t.Fatal(err)
	}
	if fmath.LE(sol.Value, 1) {
		t.Errorf("unsolvable weighted instance achieved period %g <= 1", sol.Value)
	}
}

// TestTheorem9Equivalence: the latency encoding has a one-to-one mapping of
// latency <= B iff the strict triple partition exists.
func TestTheorem9Equivalence(t *testing.T) {
	cases := []ThreePartition{
		{B: 10, Items: []int{3, 3, 4, 2, 4, 4}}, // triple-solvable
		{B: 10, Items: []int{5, 5, 5, 1, 2, 2}}, // unsolvable
		{B: 15, Items: []int{4, 5, 6, 4, 5, 6}}, // solvable
	}
	for i, tp := range cases {
		inst := EncodeLatencyOneToOne(tp)
		sol, err := exact.Minimize(context.Background(), &inst, exact.Options{Rule: mapping.OneToOne, Modes: exact.FastestOnly}, pipeline.Goal{Objective: pipeline.Latency})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		_, triple := tp.SolveTriples()
		latB := fmath.LE(sol.Value, float64(tp.B))
		if latB != triple {
			t.Errorf("case %d: latency<=B is %v but triple-partitionable is %v (latency %g)", i, latB, triple, sol.Value)
		}
	}
}

// gadgetFeasible asks the exact solver whether the tri-criteria decision
// problem of the gadget has a solution.
func gadgetFeasible(t *testing.T, g *TriCriteriaGadget) (bool, exact.Solution) {
	t.Helper()
	sol, err := exact.Minimize(context.Background(), &g.Instance, exact.Options{Rule: g.Rule, Modes: exact.AllModes}, pipeline.Goal{Objective: pipeline.Energy, Model: pipeline.Overlap, PeriodBounds: []float64{g.PeriodBound}, LatencyBounds: []float64{g.LatencyBound}})
	if errors.Is(err, exact.ErrInfeasible) {
		return false, exact.Solution{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return fmath.LE(sol.Value, g.EnergyBound), sol
}

// TestTheorem26Equivalence: the tri-criteria gadget is feasible iff the
// 2-partition instance is solvable.
func TestTheorem26Equivalence(t *testing.T) {
	// All sums even: the +-1/2 integrality slack in the thresholds forces
	// sum(I) = S/2 only when S is even, which is the only interesting case
	// for 2-partition (odd sums are trivially unsolvable before encoding).
	cases := []struct {
		items []int
		k, x  float64
	}{
		{[]int{1, 2, 3}, 8, 0.01},    // solvable
		{[]int{2, 3, 4, 5}, 6, 0.02}, // solvable
		{[]int{1, 1, 4}, 8, 0.01},    // even sum, unsolvable
		{[]int{1, 2, 4, 9}, 6, 0.02}, // even sum, unsolvable
	}
	for i, c := range cases {
		tp := TwoPartition{Items: c.items}
		g := EncodeTriCriteriaOneToOne(tp, c.k, c.x)
		if err := g.Instance.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		_, solvable := tp.Solve()
		feasible, sol := gadgetFeasible(t, &g)
		if feasible != solvable {
			t.Errorf("case %d: gadget feasible=%v but 2-partition solvable=%v", i, feasible, solvable)
			continue
		}
		if feasible {
			in, canonical := DecodeTriCriteria(&g, &sol.Mapping)
			if !canonical {
				t.Errorf("case %d: witness mapping not canonical", i)
				continue
			}
			sum, total := 0, 0
			for j, a := range c.items {
				total += a
				if in[j] {
					sum += a
				}
			}
			if 2*sum != total {
				t.Errorf("case %d: decoded subset sums to %d of %d", i, sum, total)
			}
		}
	}
}

// TestTheorem27Equivalence: the interval variant with big separator stages.
func TestTheorem27Equivalence(t *testing.T) {
	cases := []struct {
		items    []int
		k, x     float64
		solvable bool
	}{
		{[]int{1, 3}, 4, 0.02, false},
		{[]int{2, 2}, 4, 0.02, true},
		{[]int{1, 2, 3}, 4, 0.05, true},
		{[]int{1, 1, 4}, 4, 0.05, false},
	}
	for i, c := range cases {
		tp := TwoPartition{Items: c.items}
		if _, s := tp.Solve(); s != c.solvable {
			t.Fatalf("case %d: bad fixture", i)
		}
		g := EncodeTriCriteriaInterval(tp, c.k, c.x)
		feasible, sol := gadgetFeasible(t, &g)
		if feasible != c.solvable {
			t.Errorf("case %d: gadget feasible=%v but 2-partition solvable=%v", i, feasible, c.solvable)
			continue
		}
		if feasible {
			// Big stages must be isolated on top-mode processors.
			top := g.Instance.Platform.Processors[0].NumModes() - 1
			for _, iv := range sol.Mapping.Apps[0].Intervals {
				for st := iv.From; st <= iv.To; st++ {
					if st%2 == 1 && iv.Mode != top {
						t.Errorf("case %d: big stage %d not on top mode", i, st)
					}
				}
			}
		}
	}
}

// TestGadgetScaling: the exact solver's work on Theorem 5 gadgets grows
// super-polynomially with m, while the group-partition DP handles them;
// this is the empirical complexity-cliff check, kept tiny here (the bench
// exercises larger sizes).
func TestGadgetSearchSpaceGrowth(t *testing.T) {
	count := func(m int) int64 {
		items := make([]int, 3*m)
		rng := rand.New(rand.NewSource(int64(m)))
		b := 12
		for j := 0; j < m; j++ {
			x := 4 + rng.Intn(2) // 4 or 5
			items[3*j], items[3*j+1], items[3*j+2] = x, 4, b-4-x
		}
		tp := ThreePartition{B: b, Items: items}
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		inst := EncodePeriodInterval(tp)
		n, err := exact.CountMappings(&inst, exact.Options{Rule: mapping.Interval, Modes: exact.FastestOnly, Limit: 500_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c1, c2 := count(1), count(2)
	if c2 < 100*c1 {
		t.Errorf("search space did not explode: m=1 -> %d, m=2 -> %d", c1, c2)
	}
}

// brute2Partition enumerates all subsets.
func brute2Partition(items []int) bool {
	total := 0
	for _, a := range items {
		total += a
	}
	if total%2 != 0 {
		return false
	}
	for mask := 0; mask < 1<<len(items); mask++ {
		sum := 0
		for i, a := range items {
			if mask&(1<<i) != 0 {
				sum += a
			}
		}
		if 2*sum == total {
			return true
		}
	}
	return false
}

// TestTwoPartitionSolverQuick: the DP agrees with subset enumeration on
// random small instances.
func TestTwoPartitionSolverQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		items := make([]int, n)
		for i := range items {
			items[i] = 1 + rng.Intn(20)
		}
		want := brute2Partition(items)
		_, got := TwoPartition{Items: items}.Solve()
		if got != want {
			t.Fatalf("trial %d: Solve=%v brute=%v on %v", trial, got, want, items)
		}
	}
}

// TestSolveGroupsMatchesTriplesOnStrictInstances: under the strict item
// window, any exact-B group has exactly three elements, so the two solvers
// must agree.
func TestSolveGroupsMatchesTriplesOnStrictInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 100; trial++ {
		// Build strict instances: B = 20, items in (5,10) = {6,...,9}.
		m := 1 + rng.Intn(2)
		items := make([]int, 0, 3*m)
		b := 20
		ok := true
		for j := 0; j < m; j++ {
			x := 6 + rng.Intn(3) // 6..8
			y := 6 + rng.Intn(3)
			z := b - x - y
			if z <= b/4 || 2*z >= b {
				ok = false
				break
			}
			items = append(items, x, y, z)
		}
		if !ok {
			continue
		}
		// Shuffle to hide the construction.
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		tp := ThreePartition{B: b, Items: items}
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		if !tp.Strict() {
			t.Fatal("constructed instance not strict")
		}
		_, triples := tp.SolveTriples()
		_, groups := tp.SolveGroups()
		if triples != groups {
			t.Fatalf("trial %d: strict instance disagreement: triples=%v groups=%v on %v", trial, triples, groups, items)
		}
		if !triples {
			t.Fatalf("trial %d: constructed solvable instance reported unsolvable", trial)
		}
	}
}
