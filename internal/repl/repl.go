// Package repl implements the paper's announced future-work extension
// (Section 6): replicated interval mappings, in which a stage interval may
// be mapped onto several processors that process successive data sets in
// round-robin fashion to improve the period, as investigated in the
// paper's reference [4] (Benoit & Robert, Algorithmica 2009).
//
// # Model
//
// A replicated interval with k replicas executes data set t on replica
// t mod k. Each replica therefore handles one data set out of k, so in
// steady state a resource whose per-data-set occupation is c contributes
// c/k to the period. The cycle time of a replicated interval is
//
//	max over replicas r of IntervalCost(model, in_r, comp_r, out_r) / k,
//
// where communications between two replica groups are charged at the
// worst-case bandwidth over the replica pairs (the conservative choice
// also used by the simulator, keeping the analytic formulas and the
// discrete-event execution in exact agreement on every platform class).
//
// The latency of a data set depends on which replicas it traverses; the
// analytic latency reported here is the worst path, i.e. it uses the
// slowest replica of every group. Replication can only degrade latency
// (the extra replicas are never faster than the best one), which is why
// the paper frames it purely as a period optimization.
//
// Energy: every replica is an enrolled processor and consumes
// Static + speed^Alpha.
package repl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// Replica is one processor/mode pair serving a replicated interval.
type Replica struct {
	Proc int
	Mode int
}

// Interval is a stage range served by one or more replicas.
type Interval struct {
	From, To int
	Replicas []Replica
}

// Len returns the number of stages of the interval.
func (iv Interval) Len() int { return iv.To - iv.From + 1 }

// AppMapping is one application's ordered replicated-interval
// decomposition.
type AppMapping struct {
	Intervals []Interval
}

// Mapping is a replicated mapping of all applications. Like plain interval
// mappings, processors may not be shared across intervals or applications.
type Mapping struct {
	Apps []AppMapping
}

// Lift converts a plain interval mapping into a replicated mapping with
// one replica per interval.
func Lift(m *mapping.Mapping) Mapping {
	rm := Mapping{Apps: make([]AppMapping, len(m.Apps))}
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			rm.Apps[a].Intervals = append(rm.Apps[a].Intervals, Interval{
				From: iv.From, To: iv.To,
				Replicas: []Replica{{Proc: iv.Proc, Mode: iv.Mode}},
			})
		}
	}
	return rm
}

// Flatten converts a replicated mapping with single replicas back to a
// plain mapping; it fails if any interval is actually replicated.
func (rm *Mapping) Flatten() (mapping.Mapping, error) {
	m := mapping.Mapping{Apps: make([]mapping.AppMapping, len(rm.Apps))}
	for a := range rm.Apps {
		for _, iv := range rm.Apps[a].Intervals {
			if len(iv.Replicas) != 1 {
				return mapping.Mapping{}, fmt.Errorf("repl: interval [%d,%d] has %d replicas", iv.From, iv.To, len(iv.Replicas))
			}
			m.Apps[a].Intervals = append(m.Apps[a].Intervals, mapping.PlacedInterval{
				From: iv.From, To: iv.To, Proc: iv.Replicas[0].Proc, Mode: iv.Replicas[0].Mode,
			})
		}
	}
	return m, nil
}

// Clone returns a deep copy.
func (rm *Mapping) Clone() Mapping {
	c := Mapping{Apps: make([]AppMapping, len(rm.Apps))}
	for a := range rm.Apps {
		c.Apps[a].Intervals = make([]Interval, len(rm.Apps[a].Intervals))
		for j, iv := range rm.Apps[a].Intervals {
			c.Apps[a].Intervals[j] = Interval{From: iv.From, To: iv.To,
				Replicas: append([]Replica(nil), iv.Replicas...)}
		}
	}
	return c
}

// Validate checks the structural invariants: interval partitions in order,
// at least one replica per interval, valid modes, and no processor reuse
// anywhere.
func (rm *Mapping) Validate(inst *pipeline.Instance) error {
	if len(rm.Apps) != len(inst.Apps) {
		return fmt.Errorf("repl: covers %d applications, instance has %d", len(rm.Apps), len(inst.Apps))
	}
	used := make(map[int]bool)
	for a := range rm.Apps {
		n := inst.Apps[a].NumStages()
		next := 0
		if len(rm.Apps[a].Intervals) == 0 {
			return fmt.Errorf("repl: application %d has no intervals", a)
		}
		for j, iv := range rm.Apps[a].Intervals {
			if iv.From != next || iv.To < iv.From || iv.To >= n {
				return fmt.Errorf("repl: application %d interval %d range [%d,%d] invalid", a, j, iv.From, iv.To)
			}
			if len(iv.Replicas) == 0 {
				return fmt.Errorf("repl: application %d interval %d has no replicas", a, j)
			}
			for _, r := range iv.Replicas {
				if r.Proc < 0 || r.Proc >= inst.Platform.NumProcessors() {
					return fmt.Errorf("repl: unknown processor %d", r.Proc)
				}
				if used[r.Proc] {
					return fmt.Errorf("repl: processor %d assigned twice", r.Proc)
				}
				used[r.Proc] = true
				if r.Mode < 0 || r.Mode >= inst.Platform.Processors[r.Proc].NumModes() {
					return fmt.Errorf("repl: invalid mode %d on processor %d", r.Mode, r.Proc)
				}
			}
			next = iv.To + 1
		}
		if next != n {
			return fmt.Errorf("repl: application %d covers %d stages, want %d", a, next, n)
		}
	}
	return nil
}

// groupBandwidth returns the worst-case bandwidth between two replica
// groups (minimum over processor pairs).
func groupBandwidth(inst *pipeline.Instance, from, to []Replica) float64 {
	b := math.Inf(1)
	for _, f := range from {
		for _, t := range to {
			if f.Proc == t.Proc {
				continue // replicas are distinct processors by validity
			}
			b = math.Min(b, inst.Platform.Link(f.Proc, t.Proc))
		}
	}
	return b
}

func inBandwidth(inst *pipeline.Instance, a int, group []Replica) float64 {
	b := math.Inf(1)
	for _, r := range group {
		b = math.Min(b, inst.Platform.InLink(a, r.Proc))
	}
	return b
}

func outBandwidth(inst *pipeline.Instance, a int, group []Replica) float64 {
	b := math.Inf(1)
	for _, r := range group {
		b = math.Min(b, inst.Platform.OutLink(a, r.Proc))
	}
	return b
}

// IntervalComm returns the (worst-case) input and output transfer times of
// interval j of application a. Exported for the simulator, which must use
// the exact same communication model.
func IntervalComm(inst *pipeline.Instance, rm *Mapping, a, j int) (in, out float64) {
	app := &inst.Apps[a]
	ivs := rm.Apps[a].Intervals
	iv := ivs[j]
	inVol := app.InputSize(iv.From)
	if inVol > 0 {
		var bw float64
		if j == 0 {
			bw = inBandwidth(inst, a, iv.Replicas)
		} else {
			bw = groupBandwidth(inst, ivs[j-1].Replicas, iv.Replicas)
		}
		in = inVol / bw
	}
	outVol := app.OutputSize(iv.To)
	if outVol > 0 {
		var bw float64
		if j == len(ivs)-1 {
			bw = outBandwidth(inst, a, iv.Replicas)
		} else {
			bw = groupBandwidth(inst, iv.Replicas, ivs[j+1].Replicas)
		}
		out = outVol / bw
	}
	return in, out
}

// AppPeriod returns the period of application a: the maximum over
// intervals of (worst replica cycle time) / (replica count).
func AppPeriod(inst *pipeline.Instance, rm *Mapping, a int, model pipeline.CommModel) float64 {
	app := &inst.Apps[a]
	var t float64
	for j, iv := range rm.Apps[a].Intervals {
		in, out := IntervalComm(inst, rm, a, j)
		work := app.IntervalWork(iv.From, iv.To)
		var worst float64
		for _, r := range iv.Replicas {
			s := inst.Platform.Processors[r.Proc].Speeds[r.Mode]
			worst = math.Max(worst, mapping.IntervalCost(model, in, work/s, out))
		}
		t = math.Max(t, worst/float64(len(iv.Replicas)))
	}
	return t
}

// AppLatency returns the worst-path latency of application a under the
// round-robin routing: data set t is served by replica t mod k_j in every
// group j, so the reachable paths are the residue classes modulo
// lcm(k_j), and the worst latency is the maximum over them (not the sum
// of per-group slowest replicas, whose combination may never occur on the
// same data set). Communications use the worst-case group bandwidths.
func AppLatency(inst *pipeline.Instance, rm *Mapping, a int) float64 {
	app := &inst.Apps[a]
	ivs := rm.Apps[a].Intervals
	comm := 0.0 // communication part, identical on every path
	for j := range ivs {
		in, out := IntervalComm(inst, rm, a, j)
		if j == 0 {
			comm += in
		}
		comm += out
	}
	worst := 0.0
	for t, cycle := 0, rm.Apps[a].Cycle(); t < cycle; t++ {
		path := 0.0
		for _, iv := range ivs {
			r := iv.Replicas[t%len(iv.Replicas)]
			s := inst.Platform.Processors[r.Proc].Speeds[r.Mode]
			path += app.IntervalWork(iv.From, iv.To) / s
		}
		worst = math.Max(worst, path)
	}
	return comm + worst
}

// Cycle returns the lcm of the application's replica counts: data sets t
// and t+Cycle() are served by the same replica in every interval.
func (am *AppMapping) Cycle() int {
	c := 1
	for _, iv := range am.Intervals {
		c = lcm(c, len(iv.Replicas))
	}
	return c
}

// Cycle returns the lcm of every application's Cycle: after that many
// data sets, every application has run through each of its replica
// combinations.
func (rm *Mapping) Cycle() int {
	c := 1
	for a := range rm.Apps {
		c = lcm(c, rm.Apps[a].Cycle())
	}
	return c
}

func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

// Period returns the weighted global period max_a W_a*T_a.
func Period(inst *pipeline.Instance, rm *Mapping, model pipeline.CommModel) float64 {
	var t float64
	for a := range rm.Apps {
		t = math.Max(t, inst.Apps[a].EffectiveWeight()*AppPeriod(inst, rm, a, model))
	}
	return t
}

// Latency returns the weighted global worst-path latency.
func Latency(inst *pipeline.Instance, rm *Mapping) float64 {
	var l float64
	for a := range rm.Apps {
		l = math.Max(l, inst.Apps[a].EffectiveWeight()*AppLatency(inst, rm, a))
	}
	return l
}

// Energy returns the total power of all replicas.
func Energy(inst *pipeline.Instance, rm *Mapping) float64 {
	var e float64
	for a := range rm.Apps {
		for _, iv := range rm.Apps[a].Intervals {
			for _, r := range iv.Replicas {
				e += inst.Energy.Power(inst.Platform.Processors[r.Proc].Speeds[r.Mode])
			}
		}
	}
	return e
}

// UsedProcessors returns the sorted enrolled processor indices.
func (rm *Mapping) UsedProcessors() []int {
	var out []int
	for a := range rm.Apps {
		for _, iv := range rm.Apps[a].Intervals {
			for _, r := range iv.Replicas {
				out = append(out, r.Proc)
			}
		}
	}
	sort.Ints(out)
	return out
}

// String renders a compact description.
func (rm *Mapping) String() string {
	s := ""
	for a := range rm.Apps {
		if a > 0 {
			s += "; "
		}
		s += fmt.Sprintf("app%d:", a)
		for _, iv := range rm.Apps[a].Intervals {
			s += fmt.Sprintf(" [%d-%d]x%d", iv.From, iv.To, len(iv.Replicas))
		}
	}
	return s
}
