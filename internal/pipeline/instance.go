package pipeline

import (
	"fmt"
	"math"
)

// EnergyModel is the platform energy model of Section 3.5. The energy
// consumed (per time unit) by an enrolled processor running at speed s is
// E(u) = Static + s^Alpha; processors that are not enrolled consume nothing.
type EnergyModel struct {
	// Static is the fixed overhead E_stat for a processor to be in service.
	Static float64
	// Alpha is the dynamic exponent (alpha > 1). The paper's example uses 2.
	Alpha float64
}

// DefaultEnergy is the model used in the paper's motivating example.
var DefaultEnergy = EnergyModel{Static: 0, Alpha: 2}

// Power returns the energy per time unit consumed by a processor running at
// speed s: Static + s^Alpha.
func (e EnergyModel) Power(s float64) float64 {
	return e.Static + math.Pow(s, e.alpha())
}

func (e EnergyModel) alpha() float64 {
	if e.Alpha == 0 {
		return 2
	}
	return e.Alpha
}

// Validate checks a finite alpha > 1 (or the 0 sentinel meaning "default
// 2") and a finite non-negative static part.
func (e EnergyModel) Validate() error {
	if e.Alpha != 0 && !(e.Alpha > 1 && e.Alpha <= math.MaxFloat64) {
		return fmt.Errorf("pipeline: energy exponent alpha = %g must be finite and exceed 1", e.Alpha)
	}
	if !nonNegative(e.Static) {
		return fmt.Errorf("pipeline: static energy %g must be finite and non-negative", e.Static)
	}
	return nil
}

// CommModel selects how a processor's send, compute and receive operations
// interact (Section 3.2).
type CommModel int

const (
	// Overlap: communications and computations are parallel (multi-threaded
	// communication library); the cycle time of a processor is the max of
	// its three operations (Equation 3).
	Overlap CommModel = iota
	// NoOverlap: the three operations are serialized (single-threaded
	// program); the cycle time is their sum (Equation 4).
	NoOverlap
)

// String implements fmt.Stringer.
func (m CommModel) String() string {
	switch m {
	case Overlap:
		return "overlap"
	case NoOverlap:
		return "no-overlap"
	}
	return fmt.Sprintf("CommModel(%d)", int(m))
}

// ParseCommModel is the inverse of String, shared by the cmd/ tools.
func ParseCommModel(s string) (CommModel, error) {
	switch s {
	case "overlap":
		return Overlap, nil
	case "no-overlap":
		return NoOverlap, nil
	}
	return 0, fmt.Errorf("unknown model %q (want overlap | no-overlap)", s)
}

// Criterion identifies the objective a Goal minimizes.
type Criterion int

const (
	// Period minimizes the weighted global period max_a W_a*T_a.
	Period Criterion = iota
	// Latency minimizes the weighted global latency max_a W_a*L_a.
	Latency
	// Energy minimizes the total power of enrolled processors. Per the
	// paper (Section 3.5), energy is only meaningful combined with a
	// period constraint.
	Energy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Period:
		return "period"
	case Latency:
		return "latency"
	case Energy:
		return "energy"
	}
	return fmt.Sprintf("Criterion(%d)", int(c))
}

// ParseCriterion is the inverse of String, shared by the cmd/ tools.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "period":
		return Period, nil
	case "latency":
		return Latency, nil
	case "energy":
		return Energy, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want period | latency | energy)", s)
}

// Goal is one problem of the paper's family (Sections 3.4-3.5): minimize
// one criterion under optional per-application period and latency bounds
// and an energy budget. Every solver states its problem with it: the
// dispatcher's request, the exact search and the heuristic. A nil bound
// slice leaves its criterion unconstrained; a non-nil one holds one bound
// per application. The budget constrains only when positive. A mapping
// meets the goal when every bound holds under fmath.LE.
type Goal struct {
	// Objective is the criterion minimized.
	Objective Criterion
	// Model is the communication model of the periods.
	Model CommModel
	// PeriodBounds, if non-nil, constrains each application's unweighted
	// period T_a <= PeriodBounds[a].
	PeriodBounds []float64
	// LatencyBounds, if non-nil, constrains each application's unweighted
	// latency L_a <= LatencyBounds[a].
	LatencyBounds []float64
	// EnergyBudget, if positive, constrains the total energy.
	EnergyBudget float64
}

// Instance bundles the concurrent applications, the target platform and the
// energy model: one complete problem input.
type Instance struct {
	Apps     []Application
	Platform Platform
	Energy   EnergyModel
}

// TotalStages returns N = sum of n_a.
func (in *Instance) TotalStages() int {
	n := 0
	for i := range in.Apps {
		n += len(in.Apps[i].Stages)
	}
	return n
}

// Validate checks all components and their mutual consistency (the
// platform's virtual in/out links must be sized for the application count).
func (in *Instance) Validate() error {
	if len(in.Apps) == 0 {
		return fmt.Errorf("pipeline: instance has no applications")
	}
	for a := range in.Apps {
		if err := in.Apps[a].Validate(); err != nil {
			return err
		}
	}
	if err := in.Platform.Validate(); err != nil {
		return err
	}
	if err := in.Energy.Validate(); err != nil {
		return err
	}
	if got, want := in.Platform.NumApplications(), len(in.Apps); got != want {
		return fmt.Errorf("pipeline: platform virtual links sized for %d applications, instance has %d", got, want)
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() Instance {
	c := Instance{Energy: in.Energy, Platform: in.Platform.Clone()}
	c.Apps = make([]Application, len(in.Apps))
	for i := range in.Apps {
		c.Apps[i] = in.Apps[i].Clone()
	}
	return c
}

// SpecialApp reports whether the instance is in the paper's "special-app"
// case: homogeneous pipelines without communication. All data sizes
// (including inputs and outputs) are zero and every stage of every
// application has the same work requirement.
func (in *Instance) SpecialApp() bool {
	if len(in.Apps) == 0 {
		return false
	}
	w := in.Apps[0].Stages[0].Work
	for a := range in.Apps {
		app := &in.Apps[a]
		if app.In != 0 {
			return false
		}
		for _, st := range app.Stages {
			//lint:allow floatcmp structural classification: the special-app shape is defined by bit-identical input works
			if st.Out != 0 || st.Work != w {
				return false
			}
		}
	}
	return true
}

// MotivatingExample builds the Section 2 / Figure 1 instance: two
// applications and three processors with two modes each, all bandwidths 1,
// energy = speed squared.
//
// App1 has stages of work (3, 2, 1) with input size 1 and output size 0;
// App2 has stages of work (2, 6, 4, 2) with input size 0 and output size 1.
// The inner data sizes not printed in the paper are chosen consistently
// with every number computed in Section 2 (see EXPERIMENTS.md).
func MotivatingExample() Instance {
	app1 := Application{
		Name:   "App1",
		In:     1,
		Stages: []Stage{{Work: 3, Out: 3}, {Work: 2, Out: 2}, {Work: 1, Out: 0}},
		Weight: 1,
	}
	app2 := Application{
		Name:   "App2",
		In:     0,
		Stages: []Stage{{Work: 2, Out: 2}, {Work: 6, Out: 1}, {Work: 4, Out: 2}, {Work: 2, Out: 1}},
		Weight: 1,
	}
	plat := NewCommHomogeneousPlatform([][]float64{{3, 6}, {6, 8}, {1, 6}}, 1, 2)
	return Instance{Apps: []Application{app1, app2}, Platform: plat, Energy: DefaultEnergy}
}
