// Package sim executes a mapping dataset-by-dataset and measures the
// observed steady-state period and per-dataset latency. It is the runtime
// substrate that validates the closed-form expressions of Equations 3-5:
// the ASAP schedule enabled by interval mappings (Section 3.3) must achieve
// exactly the analytic period and latency.
//
// # Execution model
//
// Every placed interval is a replica group: the processors serving it,
// which take data sets round-robin (data set t goes to replica t mod k).
// A plain interval mapping is the one-replica case; a replicated mapping
// (package repl, the Section 6 extension) has groups of any size. For
// dataset t, the chosen replica of group j must
//
//  1. receive its input from the replica of group j-1 that served t (or
//     from the application's virtual input processor for j = 0),
//  2. compute for (sum of stage works)/speed time units,
//  3. send its output on to group j+1 (or to the virtual output
//     processor).
//
// Transfers between two groups are charged at the worst-case bandwidth
// over their replica pairs, as in the repl formulas; for one replica per
// group that is the plain link bandwidth.
//
// Under the overlap model the three operations of a replica proceed in
// parallel across datasets, constrained by one incoming transfer, one
// computation and one outgoing transfer at a time (the one-port model of
// Section 3.2): each replica has an input port, a CPU and an output port,
// each a unit-capacity resource, and a transfer holds the sender's output
// port and the receiver's input port together. With one replica per group
// those two ports are always released together, so they are one resource:
// the edge between the two nodes.
//
// Under the no-overlap model a replica's processor serializes receive,
// compute and send of each dataset in program order, and a transfer is a
// rendezvous that occupies the sending and the receiving processor
// simultaneously for volume/bandwidth time units. This is exactly the
// single-threaded semantics behind Equation 4: every transfer is counted
// in the cycle time of both endpoints but takes wall-clock time once,
// which also keeps the latency (Equation 5) identical across the two
// models.
//
// Results leave in data set order: the virtual output accepts data set t
// only after data set t-1, which is what gates a round-robin group by its
// slowest replica. With one replica per group results cannot overtake
// each other, so the rule never binds.
//
// Because the execution graph is a chain of groups and operations are
// issued in dataset order, the ASAP schedule is computed by a direct
// recurrence over (dataset, group), one loop per communication model,
// rather than a general event queue; this is exact and O(datasets x
// groups). TraceRun is the same recurrence with a recorder attached.
package sim

import (
	"fmt"
	"math"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/repl"
)

// Result reports the measured behaviour of one application.
type Result struct {
	// FirstLatency is the completion time of dataset 0, which enters a
	// fully idle pipeline: it must equal Equation 5's latency.
	FirstLatency float64
	// SteadyPeriod is the averaged inter-departure time of the last half
	// of the simulated datasets: it converges to the analytic period.
	SteadyPeriod float64
	// Departures[t] is the time dataset t's result reaches the virtual
	// output processor.
	Departures []float64
	// MaxLatency is the largest completion-minus-release time over all
	// datasets. Releases all happen at time 0 under saturation, so this
	// grows linearly; it is reported for completeness.
	MaxLatency float64
}

// Options configures a simulation run.
type Options struct {
	// Datasets is the number of data sets pushed through each
	// application. Defaults to 10*(nodes+2)+50, enough for the ASAP
	// schedule to reach its steady state, times the application's replica
	// cycle (repl.AppMapping.Cycle, 1 for a plain mapping).
	Datasets int
	// ReleaseInterval spaces out arrivals: data set t becomes available at
	// the virtual input processor at time t * ReleaseInterval. The default
	// 0 saturates the pipeline (all data sets available at time 0), which
	// is how the steady-state period is measured; a large spacing makes
	// every data set traverse an empty pipeline, which exposes per-path
	// latencies.
	ReleaseInterval float64
}

// Simulate runs every application of the instance under mapping m and the
// given communication model. Applications do not interact (no processor is
// shared), so they are simulated independently.
func Simulate(inst *pipeline.Instance, m *mapping.Mapping, model pipeline.CommModel, opt Options) ([]Result, error) {
	if err := m.Validate(inst, mapping.Interval); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rm := repl.Lift(m)
	return simulate(inst, &rm, model, opt), nil
}

// simulate runs every application of a validated replicated mapping.
func simulate(inst *pipeline.Instance, rm *repl.Mapping, model pipeline.CommModel, opt Options) []Result {
	out := make([]Result, len(inst.Apps))
	for a := range inst.Apps {
		c := newChain(inst, rm, a)
		k := opt.Datasets
		if k <= 0 {
			// Enough data sets for the schedule to reach its steady
			// state, and for every replica combination to appear
			// several times after the transient.
			k = (10*(len(c.groups)+2) + 50) * rm.Apps[a].Cycle()
		}
		departures := make([]float64, k)
		c.run(model, departures, opt.ReleaseInterval, nil)
		r := Result{Departures: departures, FirstLatency: departures[0]}
		for t, d := range departures {
			r.MaxLatency = max(r.MaxLatency, d-float64(t)*opt.ReleaseInterval)
		}
		if k >= 2 {
			half := k / 2
			r.SteadyPeriod = (departures[k-1] - departures[half-1]) / float64(k-half)
		}
		out[a] = r
	}
	return out
}

// chain is one application's execution graph: group j serves interval j
// with replicas reps[first:first+size].
type chain struct {
	groups []group
	reps   []replica
}

type group struct {
	in, out     float64 // worst-case input and output transfer times
	first, size int
	next        int // round-robin cursor: the replica serving the next data set
}

type replica struct {
	comp float64 // computation time of the group's interval
	// Times at which the replica's input port, CPU and output port are
	// next free. Under the no-overlap model the processor is one
	// resource, tracked in cpu.
	in, cpu, out float64
}

func newChain(inst *pipeline.Instance, rm *repl.Mapping, a int) chain {
	app := &inst.Apps[a]
	ivs := rm.Apps[a].Intervals
	n := 0
	for _, iv := range ivs {
		n += len(iv.Replicas)
	}
	c := chain{groups: make([]group, len(ivs)), reps: make([]replica, 0, n)}
	for j, iv := range ivs {
		in, out := repl.IntervalComm(inst, rm, a, j)
		c.groups[j] = group{in: in, out: out, first: len(c.reps), size: len(iv.Replicas)}
		work := app.IntervalWork(iv.From, iv.To)
		for _, r := range iv.Replicas {
			c.reps = append(c.reps, replica{comp: work / inst.Platform.Processors[r.Proc].Speeds[r.Mode]})
		}
	}
	return c
}

// take returns the replica of group g serving the next data set.
func (c *chain) take(g *group) *replica {
	r := &c.reps[g.first+g.next]
	if g.next++; g.next == g.size {
		g.next = 0
	}
	return r
}

// recorder receives every operation of a run, in issue order. The node of
// a transfer is the receiving group; node len(groups) is the virtual
// output.
type recorder func(kind OpKind, node, dataset int, start, end float64)

// run computes the ASAP schedule of len(departures) data sets, data set t
// released at t*release, writing each one's delivery time. rec may be nil.
func (c *chain) run(model pipeline.CommModel, departures []float64, release float64, rec recorder) {
	if model == pipeline.Overlap {
		c.overlap(departures, release, rec)
	} else {
		c.noOverlap(departures, release, rec)
	}
}

// overlap is the ASAP recurrence of the overlap model: per replica an
// input port, a CPU and an output port, a transfer holding the sender's
// output port and the receiver's input port together. The virtual input
// and output processors are always ready.
func (c *chain) overlap(departures []float64, release float64, rec recorder) {
	nn := len(c.groups)
	for t := range departures {
		ready := float64(t) * release
		var prev *replica
		for j := range c.groups {
			g := &c.groups[j]
			r := c.take(g)
			start := max(ready, r.in)
			if prev != nil {
				start = max(start, prev.out)
			}
			end := start + g.in
			r.in = end
			if prev != nil {
				prev.out = end
			}
			cstart := max(end, r.cpu)
			cend := cstart + r.comp
			if rec != nil {
				rec(OpTransfer, j, t, start, end)
				rec(OpCompute, j, t, cstart, cend)
			}
			r.cpu = cend
			ready = cend
			prev = r
		}
		// Final transfer to the virtual output processor.
		start := max(ready, prev.out)
		end := start + c.groups[nn-1].out
		prev.out = end
		if rec != nil {
			rec(OpTransfer, nn, t, start, end)
		}
		if t > 0 { // results leave in data set order
			end = max(end, departures[t-1])
		}
		departures[t] = end
	}
}

// noOverlap is the ASAP recurrence of the no-overlap model: each
// replica's processor executes receive(t), compute(t), send(t) in program
// order, and each inter-group transfer is a rendezvous holding both
// endpoint processors. The virtual input and output processors are always
// ready, so the first receive and the last send only hold the real
// endpoint.
//
// The sequential scan is the exact ASAP schedule: datasets are processed
// in order and, within a dataset, operations in chain order, which is
// precisely each processor's program order. The sender of a receive has
// just finished computing the same data set, so its processor is free
// exactly when the data is ready.
func (c *chain) noOverlap(departures []float64, release float64, rec recorder) {
	nn := len(c.groups)
	for t := range departures {
		ready := float64(t) * release
		var prev *replica
		for j := range c.groups {
			g := &c.groups[j]
			r := c.take(g)
			start := max(r.cpu, ready)
			end := start + g.in
			if prev != nil {
				prev.cpu = end
			}
			cend := end + r.comp
			if rec != nil {
				rec(OpTransfer, j, t, start, end)
				rec(OpCompute, j, t, end, cend)
			}
			r.cpu = cend
			ready = cend
			prev = r
		}
		// Send of the last group to the always-ready virtual output.
		start := prev.cpu
		end := start + c.groups[nn-1].out
		prev.cpu = end
		if rec != nil {
			rec(OpTransfer, nn, t, start, end)
		}
		if t > 0 { // results leave in data set order
			end = max(end, departures[t-1])
		}
		departures[t] = end
	}
}

// Verify simulates mapping m and compares the measured first-dataset
// latency and steady-state period of every application against the analytic
// formulas, returning a descriptive error on any disagreement beyond tol.
func Verify(inst *pipeline.Instance, m *mapping.Mapping, model pipeline.CommModel, tol float64) error {
	results, err := Simulate(inst, m, model, Options{})
	if err != nil {
		return err
	}
	for a, r := range results {
		wantT := mapping.AppPeriod(inst, m, a, model)
		wantL := mapping.AppLatency(inst, m, a)
		if math.Abs(r.FirstLatency-wantL) > tol*math.Max(1, wantL) {
			return fmt.Errorf("sim: app %d latency: measured %g, analytic %g (model %v)", a, r.FirstLatency, wantL, model)
		}
		if math.Abs(r.SteadyPeriod-wantT) > tol*math.Max(1, wantT) {
			return fmt.Errorf("sim: app %d period: measured %g, analytic %g (model %v)", a, r.SteadyPeriod, wantT, model)
		}
	}
	return nil
}
