// Package matching implements minimum-weight bipartite assignment via the
// Jonker-Volgenant shortest-augmenting-path variant of the Hungarian
// algorithm, and uses it for Theorem 19: on communication homogeneous
// platforms, the one-to-one mapping minimizing energy under per-application
// period bounds is a minimum weight matching between stages and processors,
// where the weight of (stage, processor) is the energy of the slowest mode
// that meets the stage's period bound.
package matching

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// ErrInfeasible is returned when no assignment satisfies the bounds.
var ErrInfeasible = errors.New("matching: no feasible assignment")

// ErrWrongPlatform is returned when platform preconditions fail.
var ErrWrongPlatform = errors.New("matching: platform does not satisfy the algorithm's preconditions")

// forbidden is the weight of an inadmissible edge. It is large enough to
// never be chosen over any sum of admissible weights, yet small enough that
// sums of a few forbidden edges do not overflow.
const forbidden = 1e18

// Assign solves the rectangular assignment problem: cost is an n x m matrix
// with n <= m; the result assigns every row i a distinct column asg[i]
// minimizing the total cost. Entries set to +Inf (or >= forbidden) mark
// inadmissible pairs; ok reports whether a fully admissible assignment
// exists.
func Assign(cost [][]float64) (asg []int, total float64, ok bool) {
	n := len(cost)
	if n == 0 {
		return nil, 0, true
	}
	m := len(cost[0])
	if n > m {
		return nil, 0, false
	}
	c := make([]float64, n*m)
	for i, row := range cost {
		for j, x := range row[:m] {
			c[i*m+j] = clamp(x)
		}
	}
	return assign(c, n, m)
}

// clamp maps inadmissible weights (+Inf or >= forbidden) to forbidden.
func clamp(c float64) float64 {
	if math.IsInf(c, 1) || c >= forbidden {
		return forbidden
	}
	return c
}

// assign is Assign on a clamped row-major n x m matrix, n <= m.
func assign(c []float64, n, m int) (asg []int, total float64, ok bool) {
	// 1-based Jonker-Volgenant shortest augmenting paths. Each row's search
	// scans only its free columns, in ascending order, and subtracts the
	// previous step's delta from a free column's minv as it reads it; only
	// the columns on the search path get their duals updated.
	floats := make([]float64, n+1+2*(m+1))
	u, v, minv := floats[:n+1], floats[n+1:n+m+2], floats[n+m+2:]
	ints := make([]int, 4*m+3)
	rowOf := ints[:m+1] // rowOf[j]: row matched to column j, 0 if free
	way := ints[m+1 : 2*m+2]
	free := ints[2*m+2 : 3*m+2]         // columns not on the search path, ascending
	path := ints[3*m+2 : 3*m+2 : 4*m+3] // columns on the search path, 0 first
	for i := 1; i <= n; i++ {
		rowOf[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		free = free[:m]
		for k := range free {
			free[k] = k + 1
		}
		path = append(path[:0], 0)
		delta := 0.0 // the step's delta, owed by every free column's minv
		for {
			i0 := rowOf[j0]
			row := c[(i0-1)*m : i0*m]
			ui, owed := u[i0], delta
			delta = math.Inf(1)
			k1 := -1
			for k, j := range free {
				mv := minv[j] - owed
				if cur := row[j-1] - ui - v[j]; cur < mv {
					mv = cur
					way[j] = j0
				}
				minv[j] = mv
				if mv < delta {
					delta = mv
					k1 = k
				}
			}
			for _, j := range path {
				u[rowOf[j]] += delta
				v[j] -= delta
			}
			j0 = free[k1]
			free = append(free[:k1], free[k1+1:]...)
			path = append(path, j0)
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
		x := c[i*m+asg[i]]
		if x >= forbidden/2 {
			return nil, 0, false
		}
		total += x
	}
	return asg, total, true
}

// MinEnergyGivenPeriodCommHom implements Theorem 19: the one-to-one mapping
// of minimal total energy subject to per-application period bounds
// (unweighted T_a <= periodBounds[a]) on a communication homogeneous
// platform. The edge weight between a stage and a processor is the energy
// of the slowest mode meeting the bound (speeds ascending, cycle time
// non-increasing in speed, power increasing), and a minimum weight
// stage-processor matching is optimal because stage cycle times are
// independent of where other stages go when all links are identical.
func MinEnergyGivenPeriodCommHom(inst *pipeline.Instance, model pipeline.CommModel, periodBounds []float64) (mapping.Mapping, float64, error) {
	if cls := inst.Platform.Classify(); cls == pipeline.FullyHeterogeneous {
		return mapping.Mapping{}, 0, fmt.Errorf("%w: want communication homogeneous, have %v", ErrWrongPlatform, cls)
	}
	type ref struct{ app, k int }
	var stages []ref
	for a := range inst.Apps {
		for k := 0; k < inst.Apps[a].NumStages(); k++ {
			stages = append(stages, ref{a, k})
		}
	}
	p := inst.Platform.NumProcessors()
	if p < len(stages) {
		return mapping.Mapping{}, 0, fmt.Errorf("%w: one-to-one needs p >= N (%d < %d)", ErrWrongPlatform, p, len(stages))
	}
	b, _ := inst.Platform.HomogeneousLinks()

	// power[off_u+mode] is Power of processor u's mode, where off_u counts
	// the modes of processors 0..u-1.
	nModes := 0
	for u := range inst.Platform.Processors {
		nModes += inst.Platform.Processors[u].NumModes()
	}
	power := make([]float64, nModes)
	off := 0
	for u := range inst.Platform.Processors {
		for mode, s := range inst.Platform.Processors[u].Speeds {
			power[off+mode] = inst.Energy.Power(s)
		}
		off += inst.Platform.Processors[u].NumModes()
	}
	// cost[i*p+u] is the clamped weight of stage i on processor u and
	// modeChoice[i*p+u] the mode achieving it (-1 if none meets the bound).
	cost := make([]float64, len(stages)*p)
	modeChoice := make([]int, len(stages)*p)
	for i, r := range stages {
		st := newStageCycle(&inst.Apps[r.app], r.k, b, model)
		off := 0
		for u := 0; u < p; u++ {
			cost[i*p+u] = forbidden
			modeChoice[i*p+u] = -1
			for mode, s := range inst.Platform.Processors[u].Speeds {
				if fmath.LE(st.at(s), periodBounds[r.app]) {
					cost[i*p+u] = clamp(power[off+mode])
					modeChoice[i*p+u] = mode
					break
				}
			}
			off += inst.Platform.Processors[u].NumModes()
		}
	}
	asg, total, ok := assign(cost, len(stages), p)
	if !ok {
		return mapping.Mapping{}, 0, ErrInfeasible
	}
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(inst.Apps))}
	for i, r := range stages {
		u := asg[i]
		m.Apps[r.app].Intervals = append(m.Apps[r.app].Intervals, mapping.PlacedInterval{
			From: r.k, To: r.k, Proc: u, Mode: modeChoice[i*p+u],
		})
	}
	if err := m.Validate(inst, mapping.OneToOne); err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, total, nil
}

// CycleTimes returns, per application, every cycle time
// MinEnergyGivenPeriodCommHom compares with that application's period
// bound: each of its stages at every processor speed. Speeds shared by
// several modes are enumerated once (their cycle times are equal bit for
// bit); the values are unsorted.
func CycleTimes(inst *pipeline.Instance, model pipeline.CommModel) [][]float64 {
	var speeds []float64
	for u := range inst.Platform.Processors {
		speeds = append(speeds, inst.Platform.Processors[u].Speeds...)
	}
	slices.Sort(speeds)
	speeds = slices.Compact(speeds)
	b, _ := inst.Platform.HomogeneousLinks()
	times := make([][]float64, len(inst.Apps))
	for a := range inst.Apps {
		app := &inst.Apps[a]
		times[a] = make([]float64, 0, len(app.Stages)*len(speeds))
		for k := range app.Stages {
			st := newStageCycle(app, k, b, model)
			for _, s := range speeds {
				times[a] = append(times[a], st.at(s))
			}
		}
	}
	return times
}

// stageCycle is one stage's cycle time on a communication homogeneous
// platform as a function of the processor speed.
type stageCycle struct {
	model         pipeline.CommModel
	in, work, out float64
}

func newStageCycle(app *pipeline.Application, k int, b float64, model pipeline.CommModel) stageCycle {
	return stageCycle{model: model, in: commCost(app.InputSize(k), b), work: app.Stages[k].Work, out: commCost(app.OutputSize(k), b)}
}

// at returns the stage's cycle time at speed s.
func (st stageCycle) at(s float64) float64 {
	return mapping.IntervalCost(st.model, st.in, st.work/s, st.out)
}

func commCost(vol, b float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / b
}
