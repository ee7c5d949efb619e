// Package pipeline defines the applicative and platform model of the paper
// (Section 3 and Figure 2): a set of independent linear-chain applications
// processed in pipelined fashion, and a target platform of fully
// interconnected multi-modal (DVFS) processors plus per-application virtual
// input/output processors.
//
// Indices are 0-based throughout: application a has stages 0..n-1, the
// paper's delta^k (output size of stage k, 1-based) is Stages[k-1].Out, and
// the paper's delta^0 (application input size) is Application.In.
package pipeline

import (
	"errors"
	"fmt"
	"math"
)

// Stage is one stage S^k of a linear chain application: it reads the output
// of its predecessor, performs Work operations, and emits Out data units to
// its successor (Section 3.1).
type Stage struct {
	// Work is the computation requirement w^k (operations per data set).
	Work float64
	// Out is the size delta^k of the data produced for the next stage (or
	// returned to the outside world for the last stage).
	Out float64
}

// Application is one linear chain workflow. Successive data sets traverse
// the stages in pipelined fashion.
type Application struct {
	// Name identifies the application in reports; optional.
	Name string
	// In is the size delta^0 of the input read from the virtual input
	// processor P_in by the first stage.
	In float64
	// Stages are the chain stages in order.
	Stages []Stage
	// Weight is the priority ratio W_a of Equation (6). The global
	// objective for criterion X is max_a Weight_a * X_a. A zero value is
	// treated as 1 by Validate.
	Weight float64
}

// NumStages returns the number of stages n_a.
func (a *Application) NumStages() int { return len(a.Stages) }

// TotalWork returns the sum of all stage computation requirements.
func (a *Application) TotalWork() float64 {
	var s float64
	for _, st := range a.Stages {
		s += st.Work
	}
	return s
}

// WorkPrefix returns the prefix-sum array P of length n+1 with
// P[i] = sum of Work of stages 0..i-1, so that the work of the interval
// [i, j] (inclusive) is P[j+1]-P[i]. Algorithms use it for O(1) range sums.
func (a *Application) WorkPrefix() []float64 {
	p := make([]float64, len(a.Stages)+1)
	for i, st := range a.Stages {
		p[i+1] = p[i] + st.Work
	}
	return p
}

// IntervalWork returns the total work of stages from..to inclusive.
func (a *Application) IntervalWork(from, to int) float64 {
	var s float64
	for i := from; i <= to; i++ {
		s += a.Stages[i].Work
	}
	return s
}

// InputSize returns the size of the data entering stage k: delta^0 for the
// first stage, otherwise the output of stage k-1.
func (a *Application) InputSize(k int) float64 {
	if k == 0 {
		return a.In
	}
	return a.Stages[k-1].Out
}

// OutputSize returns the size of the data leaving stage k (delta^{k+1} in
// 1-based paper notation).
func (a *Application) OutputSize(k int) float64 { return a.Stages[k].Out }

// EffectiveWeight returns Weight, or 1 if Weight is unset (zero).
func (a *Application) EffectiveWeight() float64 {
	if a.Weight == 0 {
		return 1
	}
	return a.Weight
}

// Validate checks structural invariants: at least one stage, finite and
// strictly positive works, finite non-negative data sizes and a finite
// non-negative weight.
func (a *Application) Validate() error {
	if len(a.Stages) == 0 {
		return fmt.Errorf("pipeline: application %q has no stages", a.Name)
	}
	if !nonNegative(a.In) {
		return fmt.Errorf("pipeline: application %q has input size %g, want finite and non-negative", a.Name, a.In)
	}
	if !nonNegative(a.Weight) {
		return fmt.Errorf("pipeline: application %q has weight %g, want finite and non-negative", a.Name, a.Weight)
	}
	for k, st := range a.Stages {
		if !positive(st.Work) {
			return fmt.Errorf("pipeline: application %q stage %d has work %g, want finite and positive", a.Name, k, st.Work)
		}
		if !nonNegative(st.Out) {
			return fmt.Errorf("pipeline: application %q stage %d has output size %g, want finite and non-negative", a.Name, k, st.Out)
		}
	}
	return nil
}

// positive and nonNegative report whether x is finite and > 0 (>= 0).
// NaN fails every comparison and +Inf exceeds MaxFloat64, so neither
// passes.
func positive(x float64) bool    { return x > 0 && x <= math.MaxFloat64 }
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Clone returns a deep copy of the application.
func (a *Application) Clone() Application {
	c := *a
	c.Stages = append([]Stage(nil), a.Stages...)
	return c
}

// NewUniformApplication builds an application of n stages, each with the
// given work, with no communication at all (all data sizes zero). This is
// the "homogeneous pipeline without communication" shape used by the
// special-app NP-hardness results (Theorems 5-11).
func NewUniformApplication(name string, n int, work float64) Application {
	st := make([]Stage, n)
	for i := range st {
		st[i].Work = work
	}
	return Application{Name: name, Stages: st, Weight: 1}
}

// ErrNoStages is returned by helpers that require a non-empty application.
var ErrNoStages = errors.New("pipeline: application has no stages")
