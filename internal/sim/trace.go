package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/repl"
)

// OpKind classifies a scheduled operation.
type OpKind int

const (
	// OpTransfer is a data transfer along an edge (including the virtual
	// input and output edges).
	OpTransfer OpKind = iota
	// OpCompute is an interval computation on a processor.
	OpCompute
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k == OpCompute {
		return "compute"
	}
	return "transfer"
}

// Op is one scheduled operation of the ASAP execution: the Gantt-chart
// building block.
type Op struct {
	Kind OpKind
	// Node is the interval index within the application's chain; for
	// transfers it identifies the receiving node (Node == number of nodes
	// marks the final transfer to the virtual output).
	Node int
	// Dataset is the data set index.
	Dataset int
	// Resource names the unit-capacity resource the operation occupies:
	// "edge:<j>" or "cpu:<j>" under the overlap model, "proc:<j>" under
	// the no-overlap model (rendezvous transfers occupy two).
	Resources []string
	Start     float64
	End       float64
}

// Trace is the full schedule of one application.
type Trace struct {
	Ops []Op
}

// TraceRun simulates application a of mapping m, recording every
// operation of its first datasets (20 when datasets <= 0), all released
// at time 0. It is Simulate's recurrence with a recorder attached, used to
// audit the ASAP execution (no resource conflicts, correct precedences).
func TraceRun(inst *pipeline.Instance, m *mapping.Mapping, a int, model pipeline.CommModel, datasets int) (Trace, error) {
	if err := m.Validate(inst, mapping.Interval); err != nil {
		return Trace{}, fmt.Errorf("sim: %w", err)
	}
	if datasets <= 0 {
		datasets = 20
	}
	rm := repl.Lift(m)
	c := newChain(inst, &rm, a)
	nn := len(c.groups)
	var tr Trace
	c.run(model, make([]float64, datasets), 0, func(kind OpKind, node, dataset int, start, end float64) {
		tr.Ops = append(tr.Ops, Op{Kind: kind, Node: node, Dataset: dataset,
			Resources: resources(model, kind, node, nn), Start: start, End: end})
	})
	return tr, nil
}

// resources names what an operation of node j holds in a chain of nn
// nodes: its edge or CPU under the overlap model, its processor (and, for
// a transfer between two nodes, the sender's too) under the no-overlap
// model.
func resources(model pipeline.CommModel, kind OpKind, j, nn int) []string {
	switch {
	case model == pipeline.Overlap && kind == OpTransfer:
		return []string{fmt.Sprintf("edge:%d", j)}
	case model == pipeline.Overlap:
		return []string{fmt.Sprintf("cpu:%d", j)}
	case kind == OpCompute || j == 0:
		return []string{fmt.Sprintf("proc:%d", j)}
	case j == nn:
		return []string{fmt.Sprintf("proc:%d", j-1)}
	}
	return []string{fmt.Sprintf("proc:%d", j), fmt.Sprintf("proc:%d", j-1)}
}

// CheckConsistency audits a trace: no two operations overlap on any
// unit-capacity resource, every data set's operations form a precedence
// chain, and operations on a resource run in data-set order.
func (tr Trace) CheckConsistency() error {
	// Resource exclusivity.
	byRes := map[string][]Op{}
	for _, op := range tr.Ops {
		for _, r := range op.Resources {
			byRes[r] = append(byRes[r], op)
		}
	}
	//lint:allow determinism verdict is order-independent; only which violation reports first can vary
	for res, ops := range byRes {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
		for i := 1; i < len(ops); i++ {
			if ops[i].Start < ops[i-1].End-1e-9 {
				return fmt.Errorf("sim: resource %s double-booked: [%g,%g] overlaps [%g,%g]",
					res, ops[i-1].Start, ops[i-1].End, ops[i].Start, ops[i].End)
			}
		}
	}
	// Precedence within each data set: ops sorted by (node, kind) must be
	// non-decreasing in time.
	byDS := map[int][]Op{}
	maxDS := 0
	for _, op := range tr.Ops {
		byDS[op.Dataset] = append(byDS[op.Dataset], op)
		if op.Dataset > maxDS {
			maxDS = op.Dataset
		}
	}
	//lint:allow determinism verdict is order-independent; only which violation reports first can vary
	for ds, ops := range byDS {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Node != ops[j].Node {
				return ops[i].Node < ops[j].Node
			}
			return ops[i].Kind == OpTransfer && ops[j].Kind == OpCompute
		})
		for i := 1; i < len(ops); i++ {
			if ops[i].Start < ops[i-1].End-1e-9 {
				return fmt.Errorf("sim: data set %d precedence violated between %v@%d and %v@%d",
					ds, ops[i-1].Kind, ops[i-1].Node, ops[i].Kind, ops[i].Node)
			}
		}
	}
	return nil
}

// Makespan returns the completion time of the last operation.
func (tr Trace) Makespan() float64 {
	var end float64
	for _, op := range tr.Ops {
		end = math.Max(end, op.End)
	}
	return end
}

// BusyTime returns the total busy time of one resource.
func (tr Trace) BusyTime(resource string) float64 {
	var busy float64
	for _, op := range tr.Ops {
		for _, r := range op.Resources {
			if r == resource {
				busy += op.End - op.Start
			}
		}
	}
	return busy
}
