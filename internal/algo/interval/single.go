// Package interval implements the paper's polynomial algorithms for
// interval mappings: the single-application chain-partition dynamic
// programs on fully homogeneous platforms (Theorems 3, 15, 18), the
// incremental processor-allocation Algorithm 2 and its multi-application
// wrappers (Theorems 3, 16, 21, 23-24), and the whole-application greedy
// for latency on communication homogeneous platforms (Theorem 12).
package interval

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// Choice is one interval of a single-application partition, together with
// the selected execution mode (for the energy-aware programs; mode is the
// index into the common speed set).
type Choice struct {
	From, To int
	Mode     int
}

// SingleDP solves the single-application partition problems on identical
// processors with uniform bandwidth. It precomputes, for every interval of
// stages, its cycle time and its computation time at the fastest speed, so
// the dynamic programs read interval costs from tables. A SingleDP is never
// modified after NewSingleDP and is safe to share.
type SingleDP struct {
	speeds []float64 // common mode set, ascending
	b      float64
	model  pipeline.CommModel
	pre    []float64
	n      int
	// in[k] and out[k] are the communication times into and out of stage
	// k; fast[t*n+f] and comp[t*n+f] are the cycle time and computation
	// time of stages [f, t] at the fastest speed (f <= t). Indexing by the
	// last stage first keeps the dynamic programs' inner loop over the
	// first stage f contiguous.
	in, out    []float64
	fast, comp []float64
}

// NewSingleDP prepares the dynamic programs for one application on
// processors with the given common (ascending) speed set and uniform
// bandwidth b.
func NewSingleDP(app *pipeline.Application, speeds []float64, b float64, model pipeline.CommModel) *SingleDP {
	n := app.NumStages()
	d := &SingleDP{
		speeds: speeds,
		b:      b,
		model:  model,
		pre:    app.WorkPrefix(),
		n:      n,
	}
	buf := make([]float64, 2*n+2*n*n)
	d.in, d.out, d.fast, d.comp = buf[:n], buf[n:2*n], buf[2*n:2*n+n*n], buf[2*n+n*n:]
	for k := 0; k < n; k++ {
		d.in[k] = d.comm(app.InputSize(k))
		d.out[k] = d.comm(app.OutputSize(k))
	}
	s := d.fastest()
	for f := 0; f < n; f++ {
		for t := f; t < n; t++ {
			d.fast[t*n+f] = d.cost(f, t, s)
			d.comp[t*n+f] = (d.pre[t+1] - d.pre[f]) / s
		}
	}
	return d
}

// cost returns the cycle time of the interval of stages [f, t] (0-based,
// inclusive) executed at speed s: in/comp/out combined per the
// communication model (Equations 3-4).
func (d *SingleDP) cost(f, t int, s float64) float64 {
	comp := (d.pre[t+1] - d.pre[f]) / s
	return mapping.IntervalCost(d.model, d.in[f], comp, d.out[t])
}

func (d *SingleDP) comm(vol float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / d.b
}

// fastest returns the highest common speed.
func (d *SingleDP) fastest() float64 { return d.speeds[len(d.speeds)-1] }

// table is one chain dynamic program over stage prefixes on up to q
// processors. Level k is the row val[k*w:(k+1)*w], w = n+1: its entry i is
// the best value for stages 0..i-1 on exactly k processors (+Inf when no
// partition meets the bound), and the same entry of cut is the first stage
// of the last interval. Level k depends only on level k-1, so a table
// filled to level q answers every q' <= q exactly as a table built for q'
// would; levels above filled are not computed yet.
//
// step[t*n+f] is the recurrence's term for the interval of stages [f, t]
// (its computation time for latency, its power for energy), +Inf when the
// interval misses the period bound. Energy tables also keep each
// interval's cheapest feasible mode (cheap[t*n+f], -1 when none).
type table struct {
	n, filled  int
	val, step  []float64
	cut, cheap []int
}

// newTable allocates a table for up to q processors with room for a step
// term, and for a cheap table when withModes is set.
func (d *SingleDP) newTable(q int, withModes bool) *table {
	cells, nn := (q+1)*(d.n+1), d.n*d.n
	floats := make([]float64, cells+nn)
	tb := &table{n: d.n, val: floats[:cells], step: floats[cells:]}
	if withModes {
		ints := make([]int, cells+nn)
		tb.cut, tb.cheap = ints[:cells], ints[cells:]
	} else {
		tb.cut = make([]int, cells)
	}
	return tb
}

// level returns level k's value and cut rows, with every value reset to
// +Inf, and the values of level k-1; it marks the table filled to k.
func (tb *table) level(k int) (prev, val []float64, cut []int) {
	w := tb.n + 1
	val = tb.val[k*w : (k+1)*w]
	for i := range val {
		val[i] = math.Inf(1)
	}
	tb.filled = k
	return tb.val[(k-1)*w : k*w], val, tb.cut[k*w : (k+1)*w]
}

// full returns the value for all n stages on exactly k processors.
func (tb *table) full(k int) float64 { return tb.val[k*(tb.n+1)+tb.n] }

// firstMin returns the first minimum (under strict <) of full(k) over k in
// 1..q, and that k; k is 0 when every entry is +Inf.
func (tb *table) firstMin(q int) (float64, int) {
	best, bestK := math.Inf(1), 0
	for k := 1; k <= q; k++ {
		if v := tb.full(k); v < best {
			best, bestK = v, k
		}
	}
	return best, bestK
}

// partition reconstructs the partition of all n stages into exactly k
// intervals, each at its cheapest feasible mode for energy tables and at
// the fastest mode otherwise.
func (d *SingleDP) partition(tb *table, k int) []Choice {
	out := make([]Choice, k)
	i := d.n
	for kk := k; kk >= 1; kk-- {
		j := tb.cut[kk*(d.n+1)+i]
		mode := len(d.speeds) - 1
		if tb.cheap != nil {
			mode = tb.cheap[(i-1)*d.n+j]
		}
		out[kk-1] = Choice{From: j, To: i - 1, Mode: mode}
		i = j
	}
	return out
}

// best answers a single processor bound q from a table filled for at least
// min(q, n) processors.
func (d *SingleDP) best(tb *table, q int) (float64, []Choice, bool) {
	v, k := tb.firstMin(min(q, d.n))
	if k == 0 {
		return math.Inf(1), nil, false
	}
	return v, d.partition(tb, k), true
}

// curve answers every processor bound q in 1..maxProcs from one table
// filled for min(maxProcs, n) processors: the value is the first minimum
// over k <= min(q, n), exactly as best(tb, q) takes it, with +Inf and a
// nil partition where no k is feasible. Bounds with the same minimizing k
// share one partition slice.
func (d *SingleDP) curve(tb *table, maxProcs int) ([]float64, [][]Choice) {
	curve := make([]float64, maxProcs)
	parts := make([][]Choice, maxProcs)
	best := math.Inf(1)
	var part []Choice
	for q := 1; q <= maxProcs; q++ {
		if q <= d.n && tb.full(q) < best {
			best = tb.full(q)
			part = d.partition(tb, q)
		}
		curve[q-1], parts[q-1] = best, part
	}
	return curve, parts
}

// MinPeriod returns, for every processor count q in 1..maxProcs, the
// minimal period achievable with at most q processors (at the fastest
// speed, since energy is not a criterion), plus the optimal partitions.
// Curve[q-1] is non-increasing in q as required by Algorithm 2.
func (d *SingleDP) MinPeriod(maxProcs int) (curve []float64, parts [][]Choice) {
	q := min(maxProcs, d.n)
	n := d.n
	// Level k: minimal period mapping stages 0..i-1 onto exactly k
	// processors.
	tb := d.newTable(q, false)
	_, val, cut := tb.level(1)
	for i := 1; i <= n; i++ {
		val[i] = d.fast[(i-1)*n]
		cut[i] = 0
	}
	for k := 2; k <= q; k++ {
		prev, val, cut := tb.level(k)
		for i := k; i <= n; i++ {
			fast := d.fast[(i-1)*n : i*n]
			for j := k - 1; j < i; j++ {
				v := math.Max(prev[j], fast[j])
				if v < val[i] {
					val[i] = v
					cut[i] = j
				}
			}
		}
	}
	return d.curve(tb, maxProcs)
}

// latencyTable is the Theorem 15 dynamic program on up to q processors:
// level k holds the minimal latency for stages 0..i-1 on exactly k
// processors with every cycle time <= periodBound, at the fastest speed.
// The latency of a prefix is the input communication plus each interval's
// computation and outgoing communication; the outgoing communication of
// the prefix's last interval is delta_i/b regardless of where the next
// interval goes (uniform bandwidth), so prefix latencies compose. The
// table is allocated for q processors and filled for max(filled, 1);
// fillLatency fills more.
func (d *SingleDP) latencyTable(q, filled int, periodBound float64) *table {
	n := d.n
	tb := d.newTable(q, false)
	for t := 0; t < n; t++ {
		for f := 0; f <= t; f++ {
			tb.step[t*n+f] = math.Inf(1)
			if fmath.LE(d.fast[t*n+f], periodBound) {
				tb.step[t*n+f] = d.comp[t*n+f]
			}
		}
	}
	_, val, cut := tb.level(1)
	for i := 1; i <= n; i++ {
		if c := tb.step[(i-1)*n]; !math.IsInf(c, 1) {
			val[i] = d.in[0] + c + d.out[i-1]
			cut[i] = 0
		}
	}
	d.fillLatency(tb, filled)
	return tb
}

// fillLatency fills a latency table's levels up to q (no further than it
// was allocated for).
func (d *SingleDP) fillLatency(tb *table, q int) {
	n := d.n
	for k := tb.filled + 1; k <= q; k++ {
		prev, val, cut := tb.level(k)
		for i := k; i <= n; i++ {
			comp, out := tb.step[(i-1)*n:i*n], d.out[i-1]
			for j := k - 1; j < i; j++ {
				if math.IsInf(prev[j], 1) || math.IsInf(comp[j], 1) {
					continue
				}
				v := prev[j] + comp[j] + out
				if v < val[i] {
					val[i] = v
					cut[i] = j
				}
			}
		}
	}
}

// MinLatencyGivenPeriod implements the Theorem 15 dynamic program: the
// minimal latency over interval mappings using at most maxProcs processors
// whose period does not exceed periodBound, at the fastest speed. The
// boolean reports feasibility.
func (d *SingleDP) MinLatencyGivenPeriod(maxProcs int, periodBound float64) (float64, []Choice, bool) {
	q := min(maxProcs, d.n)
	return d.best(d.latencyTable(q, q, periodBound), maxProcs)
}

// LatencyCurve returns MinLatencyGivenPeriod(q, periodBound) for every q
// in 1..maxProcs (+Inf and a nil partition where infeasible), from one
// dynamic program.
func (d *SingleDP) LatencyCurve(maxProcs int, periodBound float64) ([]float64, [][]Choice) {
	q := min(maxProcs, d.n)
	return d.curve(d.latencyTable(q, q, periodBound), maxProcs)
}

// PeriodCandidates returns the sorted set of values the optimal period can
// take at the fastest speed: every interval cycle time (Theorem 15's
// binary-search set, extended to both communication models).
func (d *SingleDP) PeriodCandidates() []float64 {
	cands := make([]float64, 0, d.n*(d.n+1)/2)
	for f := 0; f < d.n; f++ {
		for t := f; t < d.n; t++ {
			cands = append(cands, d.fast[t*d.n+f])
		}
	}
	return fmath.SortedUnique(cands)
}

// periodSearch binary-searches the period candidates for the smallest
// period whose Theorem 15 latency on at most q <= n processors does not
// exceed latencyBound. at(i, q) returns the latency table for cands[i],
// filled for at least q processors. It returns the chosen candidate's
// table (nil when none qualifies), the period and the processor count.
func (d *SingleDP) periodSearch(cands []float64, q int, latencyBound float64, at func(i, q int) *table) (*table, float64, int) {
	var bestTb *table
	bestT, bestK := math.Inf(1), 0
	lo, hi := 0, len(cands)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		tb := at(mid, q)
		l, k := tb.firstMin(q)
		if k != 0 && fmath.LE(l, latencyBound) {
			bestTb, bestT, bestK = tb, cands[mid], k
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return bestTb, bestT, bestK
}

// MinPeriodGivenLatency binary-searches the period candidates for the
// smallest period whose Theorem 15 latency does not exceed latencyBound.
func (d *SingleDP) MinPeriodGivenLatency(maxProcs int, latencyBound float64) (float64, []Choice, bool) {
	cands := d.PeriodCandidates()
	q := min(maxProcs, d.n)
	tb, t, k := d.periodSearch(cands, q, latencyBound, func(i, _ int) *table {
		return d.latencyTable(q, q, cands[i])
	})
	if tb == nil {
		return math.Inf(1), nil, false
	}
	return t, d.partition(tb, k), true
}

// PeriodCurve returns MinPeriodGivenLatency(q, latencyBound) for every q in
// 1..maxProcs (+Inf and a nil partition where infeasible). The candidate
// set is built once, and every q runs the same binary search as the
// single-bound solve over latency tables memoized by candidate index, so
// the probes and answers are those of the single-bound solve. A memoized
// table is filled only as far as the largest q that probed it.
func (d *SingleDP) PeriodCurve(maxProcs int, latencyBound float64) ([]float64, [][]Choice) {
	cands := d.PeriodCandidates()
	tq := min(maxProcs, d.n)
	tables := make([]*table, len(cands))
	at := func(i, q int) *table {
		if tables[i] == nil {
			tables[i] = d.latencyTable(tq, q, cands[i])
		}
		d.fillLatency(tables[i], q)
		return tables[i]
	}
	curve := make([]float64, maxProcs)
	parts := make([][]Choice, maxProcs)
	for q := 1; q <= maxProcs; q++ {
		tb, t, k := d.periodSearch(cands, min(q, d.n), latencyBound, at)
		if tb == nil {
			curve[q-1] = math.Inf(1)
			continue
		}
		curve[q-1], parts[q-1] = t, d.partition(tb, k)
	}
	return curve, parts
}

// energyTable is the Theorem 18 dynamic program on up to q processors:
// level k holds the minimal energy (sum of Static + speed^Alpha over
// enrolled processors) for stages 0..i-1 on exactly k processors whose
// cycle times do not exceed periodBound, each interval running at the
// cheapest mode that meets the bound.
func (d *SingleDP) energyTable(q int, periodBound float64, em pipeline.EnergyModel) *table {
	n := d.n
	tb := d.newTable(q, true)
	// Speeds are ascending and cost is non-increasing in speed, so the
	// cheapest feasible mode is the smallest feasible one.
	power := make([]float64, len(d.speeds))
	for m, s := range d.speeds {
		power[m] = em.Power(s)
	}
	for t := 0; t < n; t++ {
		for f := 0; f <= t; f++ {
			tb.cheap[t*n+f] = -1
			tb.step[t*n+f] = math.Inf(1)
			if !fmath.LE(d.fast[t*n+f], periodBound) {
				// No slower mode can meet a bound the fastest misses.
				continue
			}
			for m, s := range d.speeds {
				if fmath.LE(d.cost(f, t, s), periodBound) {
					tb.cheap[t*n+f] = m
					tb.step[t*n+f] = power[m]
					break
				}
			}
		}
	}
	_, val, cut := tb.level(1)
	for i := 1; i <= n; i++ {
		if e := tb.step[(i-1)*n]; !math.IsInf(e, 1) {
			val[i] = e
			cut[i] = 0
		}
	}
	for k := 2; k <= q; k++ {
		prev, val, cut := tb.level(k)
		for i := k; i <= n; i++ {
			steps := tb.step[(i-1)*n : i*n]
			for j := k - 1; j < i; j++ {
				if math.IsInf(steps[j], 1) || math.IsInf(prev[j], 1) {
					continue
				}
				v := prev[j] + steps[j]
				if v < val[i] {
					val[i] = v
					cut[i] = j
				}
			}
		}
	}
	return tb
}

// MinEnergyGivenPeriod implements the Theorem 18 dynamic program: the
// minimal energy over interval mappings with at most maxProcs processors
// whose period does not exceed periodBound, choosing for each interval the
// cheapest mode that meets the bound.
func (d *SingleDP) MinEnergyGivenPeriod(maxProcs int, periodBound float64, em pipeline.EnergyModel) (float64, []Choice, bool) {
	return d.best(d.energyTable(min(maxProcs, d.n), periodBound, em), maxProcs)
}

// EnergyCurve returns, for q in 1..maxProcs, the minimal energy with at
// most q processors under the period bound (Theorem 21's E_a^k values,
// non-increasing in q; +Inf marks infeasible counts), plus the partitions,
// from one dynamic program.
func (d *SingleDP) EnergyCurve(maxProcs int, periodBound float64, em pipeline.EnergyModel) ([]float64, [][]Choice) {
	return d.curve(d.energyTable(min(maxProcs, d.n), periodBound, em), maxProcs)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
