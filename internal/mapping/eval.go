package mapping

import (
	"math"

	"repro/internal/fmath"
	"repro/internal/pipeline"
)

// IntervalCost combines the three operation times of a processor into its
// cycle time: the max under the overlap model (Equation 3) and the sum under
// the no-overlap model (Equation 4).
func IntervalCost(model pipeline.CommModel, in, comp, out float64) float64 {
	if model == pipeline.Overlap {
		return fmath.Max(in, fmath.Max(comp, out))
	}
	return in + comp + out
}

// intervalTimes returns the incoming communication time, computation time
// and outgoing communication time of interval j of application a under m.
func intervalTimes(inst *pipeline.Instance, m *Mapping, a, j int) (in, comp, out float64) {
	app := &inst.Apps[a]
	ivs := m.Apps[a].Intervals
	iv := ivs[j]
	speed := inst.Platform.Processors[iv.Proc].Speeds[iv.Mode]
	comp = app.IntervalWork(iv.From, iv.To) / speed

	inVol := app.InputSize(iv.From)
	if j == 0 {
		in = safeDiv(inVol, inst.Platform.InLink(a, iv.Proc))
	} else {
		in = safeDiv(inVol, inst.Platform.Link(ivs[j-1].Proc, iv.Proc))
	}

	outVol := app.OutputSize(iv.To)
	if j == len(ivs)-1 {
		out = safeDiv(outVol, inst.Platform.OutLink(a, iv.Proc))
	} else {
		out = safeDiv(outVol, inst.Platform.Link(iv.Proc, ivs[j+1].Proc))
	}
	return in, comp, out
}

func safeDiv(vol, bw float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / bw
}

// AppPeriod returns the period T_a of application a under m: the maximum
// cycle time over its enrolled processors (Equations 3 and 4).
func AppPeriod(inst *pipeline.Instance, m *Mapping, a int, model pipeline.CommModel) float64 {
	var t float64
	for j := range m.Apps[a].Intervals {
		in, comp, out := intervalTimes(inst, m, a, j)
		t = math.Max(t, IntervalCost(model, in, comp, out))
	}
	return t
}

// AppLatency returns the latency L_a of application a under m (Equation 5):
// the input communication plus, for every interval, its computation and
// outgoing communication. The latency is identical under both communication
// models.
func AppLatency(inst *pipeline.Instance, m *Mapping, a int) float64 {
	var l float64
	for j := range m.Apps[a].Intervals {
		in, comp, out := intervalTimes(inst, m, a, j)
		if j == 0 {
			l += in
		}
		l += comp + out
	}
	return l
}

// Period returns the global period max_a W_a * T_a (Equation 6).
func Period(inst *pipeline.Instance, m *Mapping, model pipeline.CommModel) float64 {
	var t float64
	for a := range m.Apps {
		t = math.Max(t, inst.Apps[a].EffectiveWeight()*AppPeriod(inst, m, a, model))
	}
	return t
}

// Latency returns the global latency max_a W_a * L_a (Equation 6).
func Latency(inst *pipeline.Instance, m *Mapping) float64 {
	var l float64
	for a := range m.Apps {
		l = math.Max(l, inst.Apps[a].EffectiveWeight()*AppLatency(inst, m, a))
	}
	return l
}

// Energy returns the total energy consumption per time unit of the enrolled
// processors (Section 3.5): sum over used processors of Static + speed^Alpha.
func Energy(inst *pipeline.Instance, m *Mapping) float64 {
	var e float64
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			s := inst.Platform.Processors[iv.Proc].Speeds[iv.Mode]
			e += inst.Energy.Power(s)
		}
	}
	return e
}

// PowerTable holds inst.Energy.Power(speed) for every (processor, mode):
// entry [u][k] is the power of processor u in mode k. Build it once per
// solve to take math.Pow out of a search's objective.
type PowerTable [][]float64

// NewPowerTable tabulates the power of every (processor, mode) of inst.
func NewPowerTable(inst *pipeline.Instance) PowerTable {
	pt := make(PowerTable, len(inst.Platform.Processors))
	for u := range pt {
		speeds := inst.Platform.Processors[u].Speeds
		pt[u] = make([]float64, len(speeds))
		for k, s := range speeds {
			pt[u][k] = inst.Energy.Power(s)
		}
	}
	return pt
}

// Energy is Energy(inst, m) read from the table: the same values summed in
// the same order, so the result is bit-identical.
func (pt PowerTable) Energy(m *Mapping) float64 {
	var e float64
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			e += pt[iv.Proc][iv.Mode]
		}
	}
	return e
}

// Metrics bundles all three criteria of a mapping.
type Metrics struct {
	// Period is the weighted global period max_a W_a*T_a.
	Period float64
	// Latency is the weighted global latency max_a W_a*L_a.
	Latency float64
	// Energy is the total power of enrolled processors.
	Energy float64
	// AppPeriods and AppLatencies are the unweighted per-application
	// values T_a and L_a.
	AppPeriods   []float64
	AppLatencies []float64
}

// Evaluate computes all metrics of m on inst under the given communication
// model.
func Evaluate(inst *pipeline.Instance, m *Mapping, model pipeline.CommModel) Metrics {
	mt := Metrics{Energy: Energy(inst, m)}
	for a := range m.Apps {
		ta := AppPeriod(inst, m, a, model)
		la := AppLatency(inst, m, a)
		mt.AppPeriods = append(mt.AppPeriods, ta)
		mt.AppLatencies = append(mt.AppLatencies, la)
		w := inst.Apps[a].EffectiveWeight()
		mt.Period = math.Max(mt.Period, w*ta)
		mt.Latency = math.Max(mt.Latency, w*la)
	}
	return mt
}
