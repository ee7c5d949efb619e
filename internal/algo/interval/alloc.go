package interval

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/algo/alloc"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// ErrInfeasible is returned when no mapping satisfies the given bounds.
var ErrInfeasible = errors.New("interval: no mapping satisfies the bounds")

// ErrWrongPlatform is returned when an algorithm's platform preconditions
// (class, processor count, modality) do not hold.
var ErrWrongPlatform = errors.New("interval: platform does not satisfy the algorithm's preconditions")

// homSetup extracts the common speed set and uniform bandwidth of a fully
// homogeneous platform, failing when the preconditions do not hold.
func homSetup(inst *pipeline.Instance) (speeds []float64, b float64, err error) {
	if inst.Platform.Classify() != pipeline.FullyHomogeneous {
		return nil, 0, fmt.Errorf("%w: want fully homogeneous, have %v", ErrWrongPlatform, inst.Platform.Classify())
	}
	if inst.Platform.NumProcessors() < len(inst.Apps) {
		return nil, 0, fmt.Errorf("%w: %d processors cannot host %d applications", ErrWrongPlatform, inst.Platform.NumProcessors(), len(inst.Apps))
	}
	b, _ = inst.Platform.HomogeneousLinks()
	return inst.Platform.Processors[0].Speeds, b, nil
}

// CycleTimes returns, per application, every cycle time
// MinLatencyGivenPeriodFullyHom and MinEnergyGivenPeriodFullyHom compare
// with that application's period bound: each interval of its stages at
// every common speed, as SingleDP.cost computes it, unsorted and with
// duplicates kept.
func CycleTimes(inst *pipeline.Instance, model pipeline.CommModel) [][]float64 {
	speeds := inst.Platform.Processors[0].Speeds
	b, _ := inst.Platform.HomogeneousLinks()
	times := make([][]float64, len(inst.Apps))
	for a := range inst.Apps {
		d := NewSingleDP(&inst.Apps[a], speeds, b, model)
		times[a] = make([]float64, 0, len(speeds)*d.n*(d.n+1)/2)
		for _, s := range speeds {
			for f := 0; f < d.n; f++ {
				for t := f; t < d.n; t++ {
					times[a] = append(times[a], d.cost(f, t, s))
				}
			}
		}
	}
	return times
}

// assemble turns per-application partitions into a Mapping by handing out
// processor indices sequentially (processors are identical, so identity
// does not matter).
func assemble(inst *pipeline.Instance, parts [][]Choice) (mapping.Mapping, error) {
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(parts))}
	next := 0
	for a, part := range parts {
		for _, c := range part {
			if next >= inst.Platform.NumProcessors() {
				return mapping.Mapping{}, fmt.Errorf("interval: partition needs more than %d processors", inst.Platform.NumProcessors())
			}
			m.Apps[a].Intervals = append(m.Apps[a].Intervals, mapping.PlacedInterval{
				From: c.From, To: c.To, Proc: next, Mode: c.Mode,
			})
			next++
		}
	}
	if err := m.Validate(inst, mapping.Interval); err != nil {
		return mapping.Mapping{}, err
	}
	return m, nil
}

// maxProcsPerApp bounds how many processors one application can receive:
// every other application keeps at least one.
func maxProcsPerApp(inst *pipeline.Instance) int {
	return inst.Platform.NumProcessors() - len(inst.Apps) + 1
}

// MinPeriodFullyHom implements Theorem 3: the interval mapping minimizing
// the weighted global period max_a W_a*T_a on a fully homogeneous platform,
// via the single-application dynamic program and Algorithm 2. Processors
// run at their fastest mode (energy is not a criterion).
func MinPeriodFullyHom(inst *pipeline.Instance, model pipeline.CommModel) (mapping.Mapping, float64, error) {
	return allocByCurve(inst, func(dp *SingleDP, _, mx int) ([]float64, [][]Choice) {
		return dp.MinPeriod(mx)
	}, model)
}

// MinLatencyGivenPeriodFullyHom implements the latency half of Theorem 16:
// minimize the weighted global latency subject to a per-application period
// bound periodBounds[a] (on the unweighted T_a), on a fully homogeneous
// platform.
func MinLatencyGivenPeriodFullyHom(inst *pipeline.Instance, model pipeline.CommModel, periodBounds []float64) (mapping.Mapping, float64, error) {
	return allocByCurve(inst, func(dp *SingleDP, a, mx int) ([]float64, [][]Choice) {
		return dp.LatencyCurve(mx, periodBounds[a])
	}, model)
}

// MinPeriodGivenLatencyFullyHom implements the period half of Theorem 16:
// minimize the weighted global period subject to a per-application latency
// bound latencyBounds[a] (on the unweighted L_a).
func MinPeriodGivenLatencyFullyHom(inst *pipeline.Instance, model pipeline.CommModel, latencyBounds []float64) (mapping.Mapping, float64, error) {
	return allocByCurve(inst, func(dp *SingleDP, a, mx int) ([]float64, [][]Choice) {
		return dp.PeriodCurve(mx, latencyBounds[a])
	}, model)
}

// allocByCurve runs Algorithm 2 on per-application curves: curveOf(dp, a,
// mx) returns application a's unweighted best value for every processor
// count 1..mx (+Inf where infeasible) and the matching partitions.
func allocByCurve(inst *pipeline.Instance, curveOf func(dp *SingleDP, a, mx int) ([]float64, [][]Choice), model pipeline.CommModel) (mapping.Mapping, float64, error) {
	speeds, b, err := homSetup(inst)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	mx := maxProcsPerApp(inst)
	curves := make([][]float64, len(inst.Apps))
	parts := make([][][]Choice, len(inst.Apps))
	for a := range inst.Apps {
		dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
		w := inst.Apps[a].EffectiveWeight()
		curves[a], parts[a] = curveOf(dp, a, mx)
		for q, v := range curves[a] {
			if !math.IsInf(v, 1) {
				curves[a][q] = w * v
			}
		}
		if math.IsInf(curves[a][mx-1], 1) {
			return mapping.Mapping{}, 0, fmt.Errorf("%w: application %d", ErrInfeasible, a)
		}
	}
	counts, value := alloc.Allocate(curves, inst.Platform.NumProcessors())
	// Algorithm 2 starts at one processor per application, which may be
	// infeasible under the bounds even though larger counts are feasible;
	// grow any infeasible application greedily (the curve is +Inf there,
	// so it is the bottleneck and Allocate already grew it; this guard
	// catches the case where growth stopped on a different application).
	chosen := make([][]Choice, len(inst.Apps))
	for a := range chosen {
		if math.IsInf(curves[a][counts[a]-1], 1) {
			return mapping.Mapping{}, 0, ErrInfeasible
		}
		chosen[a] = parts[a][counts[a]-1]
	}
	if math.IsInf(value, 1) {
		return mapping.Mapping{}, 0, ErrInfeasible
	}
	m, err := assemble(inst, chosen)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, value, nil
}

// MinEnergyGivenPeriodFullyHom implements Theorems 18 and 21: minimize the
// total energy subject to a per-application period bound on a fully
// homogeneous (multi-modal) platform. Unlike the max-based criteria this
// composes per-application energies additively, so the combination across
// applications is the Theorem 21 dynamic program rather than Algorithm 2.
func MinEnergyGivenPeriodFullyHom(inst *pipeline.Instance, model pipeline.CommModel, periodBounds []float64) (mapping.Mapping, float64, error) {
	speeds, b, err := homSetup(inst)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	mx := maxProcsPerApp(inst)
	nApps := len(inst.Apps)
	curves := make([][]float64, nApps)
	parts := make([][][]Choice, nApps)
	for a := range inst.Apps {
		dp := NewSingleDP(&inst.Apps[a], speeds, b, model)
		curves[a], parts[a] = dp.EnergyCurve(mx, periodBounds[a], inst.Energy)
	}
	counts, total, ok := alloc.CombineAdditive(curves, inst.Platform.NumProcessors())
	if !ok {
		return mapping.Mapping{}, 0, ErrInfeasible
	}
	chosen := make([][]Choice, nApps)
	for a := range chosen {
		chosen[a] = parts[a][counts[a]-1]
	}
	m, err := assemble(inst, chosen)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, total, nil
}

// MinPeriodGivenLatencyEnergyUniModal implements the first tri-criteria
// variant of Theorem 24 on fully homogeneous uni-modal platforms: minimize
// the weighted global period subject to per-application latency bounds and
// a global energy budget. The budget caps the number of enrolled
// processors, after which Algorithm 2 applies.
func MinPeriodGivenLatencyEnergyUniModal(inst *pipeline.Instance, model pipeline.CommModel, latencyBounds []float64, energyBudget float64) (mapping.Mapping, float64, error) {
	capped, err := uniModalBudgetInstance(inst, energyBudget)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	m, v, err := MinPeriodGivenLatencyFullyHom(capped, model, latencyBounds)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, v, nil
}

// MinLatencyGivenPeriodEnergyUniModal is the second Theorem 24 variant:
// minimize the weighted global latency subject to per-application period
// bounds and a global energy budget, on uni-modal fully homogeneous
// platforms.
func MinLatencyGivenPeriodEnergyUniModal(inst *pipeline.Instance, model pipeline.CommModel, periodBounds []float64, energyBudget float64) (mapping.Mapping, float64, error) {
	capped, err := uniModalBudgetInstance(inst, energyBudget)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return MinLatencyGivenPeriodFullyHom(capped, model, periodBounds)
}

// MinEnergyGivenPeriodLatencyUniModal is the third Theorem 24 variant:
// minimize the energy subject to per-application period and latency bounds
// on uni-modal fully homogeneous platforms. Each application independently
// takes the fewest processors meeting both bounds.
func MinEnergyGivenPeriodLatencyUniModal(inst *pipeline.Instance, model pipeline.CommModel, periodBounds, latencyBounds []float64) (mapping.Mapping, float64, error) {
	speeds, b, err := homSetup(inst)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	if !inst.Platform.UniModal() {
		return mapping.Mapping{}, 0, fmt.Errorf("%w: want uni-modal processors", ErrWrongPlatform)
	}
	mx := maxProcsPerApp(inst)
	perProc := inst.Energy.Power(speeds[0])
	var chosen [][]Choice
	total := 0.0
	used := 0
	for a := range inst.Apps {
		curve, parts := NewSingleDP(&inst.Apps[a], speeds, b, model).LatencyCurve(mx, periodBounds[a])
		found := false
		for q, l := range curve {
			if !math.IsInf(l, 1) && fmath.LE(l, latencyBounds[a]) {
				chosen = append(chosen, parts[q])
				total += float64(len(parts[q])) * perProc
				used += len(parts[q])
				found = true
				break
			}
		}
		if !found {
			return mapping.Mapping{}, 0, fmt.Errorf("%w: application %d", ErrInfeasible, a)
		}
	}
	if used > inst.Platform.NumProcessors() {
		return mapping.Mapping{}, 0, ErrInfeasible
	}
	m, err := assemble(inst, chosen)
	if err != nil {
		return mapping.Mapping{}, 0, err
	}
	return m, total, nil
}

// uniModalBudgetInstance returns a shallow view of inst whose platform is
// truncated to the maximum number of processors affordable under the energy
// budget (each enrolled uni-modal processor costs Static + s^Alpha).
func uniModalBudgetInstance(inst *pipeline.Instance, energyBudget float64) (*pipeline.Instance, error) {
	if inst.Platform.Classify() != pipeline.FullyHomogeneous || !inst.Platform.UniModal() {
		return nil, fmt.Errorf("%w: want uni-modal fully homogeneous", ErrWrongPlatform)
	}
	perProc := inst.Energy.Power(inst.Platform.Processors[0].Speeds[0])
	maxProcs := inst.Platform.NumProcessors()
	if perProc > 0 {
		afford := int(math.Floor(energyBudget/perProc + fmath.Eps))
		if afford < maxProcs {
			maxProcs = afford
		}
	}
	if maxProcs < len(inst.Apps) {
		return nil, fmt.Errorf("%w: energy budget %g affords %d processors for %d applications", ErrInfeasible, energyBudget, maxProcs, len(inst.Apps))
	}
	capped := inst.Clone()
	capped.Platform.Processors = capped.Platform.Processors[:maxProcs]
	capped.Platform.Bandwidth = capped.Platform.Bandwidth[:maxProcs]
	for i := range capped.Platform.Bandwidth {
		capped.Platform.Bandwidth[i] = capped.Platform.Bandwidth[i][:maxProcs]
	}
	for a := range capped.Platform.InBandwidth {
		capped.Platform.InBandwidth[a] = capped.Platform.InBandwidth[a][:maxProcs]
		capped.Platform.OutBandwidth[a] = capped.Platform.OutBandwidth[a][:maxProcs]
	}
	return &capped, nil
}
