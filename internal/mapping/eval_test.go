package mapping

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fmath"
	"repro/internal/pipeline"
)

// Fig. 1 processor indices.
const (
	p1 = 0
	p2 = 1
	p3 = 2
)

// periodOptimal is the Section 2 period-optimal mapping: App1 entirely on
// P3, App2's first half on P2 and second half on P1, all fastest modes.
func periodOptimal() Mapping {
	return Mapping{Apps: []AppMapping{
		{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: p3, Mode: 1}}},
		{Intervals: []PlacedInterval{
			{From: 0, To: 1, Proc: p2, Mode: 1},
			{From: 2, To: 3, Proc: p1, Mode: 1},
		}},
	}}
}

// latencyOptimal maps App1 on P1 and App2 on P2, both whole, fastest modes.
func latencyOptimal() Mapping {
	return Mapping{Apps: []AppMapping{
		{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: p1, Mode: 1}}},
		{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: p2, Mode: 1}}},
	}}
}

// energyMinimal maps App1 on P1 and App2 on P3, slowest modes.
func energyMinimal() Mapping {
	return Mapping{Apps: []AppMapping{
		{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: p1, Mode: 0}}},
		{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: p3, Mode: 0}}},
	}}
}

// tradeOff is the Section 2 compromise: all processors in first mode, App1
// on P1, App2 stages 1-3 on P2 and stage 4 on P3.
func tradeOff() Mapping {
	return Mapping{Apps: []AppMapping{
		{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: p1, Mode: 0}}},
		{Intervals: []PlacedInterval{
			{From: 0, To: 2, Proc: p2, Mode: 0},
			{From: 3, To: 3, Proc: p3, Mode: 0},
		}},
	}}
}

func TestMotivatingExamplePeriodOptimal(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := periodOptimal()
	if err := m.Validate(&inst, Interval); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	if got := Period(&inst, &m, pipeline.Overlap); !fmath.EQ(got, 1) {
		t.Errorf("Equation (1): period = %g, want 1", got)
	}
	if got := Energy(&inst, &m); !fmath.EQ(got, 136) {
		t.Errorf("period-optimal energy = %g, want 136 (6^2+8^2+6^2)", got)
	}
}

func TestMotivatingExampleLatencyOptimal(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := latencyOptimal()
	if err := m.Validate(&inst, Interval); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	if got := Latency(&inst, &m); !fmath.EQ(got, 2.75) {
		t.Errorf("Equation (2): latency = %g, want 2.75", got)
	}
	if got := AppLatency(&inst, &m, 0); !fmath.EQ(got, 2) {
		t.Errorf("App1 latency = %g, want 2", got)
	}
	if got := AppLatency(&inst, &m, 1); !fmath.EQ(got, 2.75) {
		t.Errorf("App2 latency = %g, want 2.75", got)
	}
}

func TestMotivatingExampleEnergyMinimal(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := energyMinimal()
	if err := m.Validate(&inst, Interval); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	if got := Energy(&inst, &m); !fmath.EQ(got, 10) {
		t.Errorf("minimum energy = %g, want 10 (3^2+1^2)", got)
	}
	if got := Period(&inst, &m, pipeline.Overlap); !fmath.EQ(got, 14) {
		t.Errorf("energy-minimal period = %g, want 14", got)
	}
}

func TestMotivatingExampleTradeOff(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := tradeOff()
	if err := m.Validate(&inst, Interval); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	if got := Period(&inst, &m, pipeline.Overlap); !fmath.EQ(got, 2) {
		t.Errorf("trade-off period = %g, want 2", got)
	}
	if got := Energy(&inst, &m); !fmath.EQ(got, 46) {
		t.Errorf("trade-off energy = %g, want 46 (3^2+6^2+1^2)", got)
	}
}

func TestNoOverlapPeriodIsSum(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := periodOptimal()
	// App2 second interval on P1: in 1/1 + comp 6/6 + out 1/1 = 3 under
	// no-overlap; App1 on P3: 1 + 1 + 0 = 2.
	if got := AppPeriod(&inst, &m, 1, pipeline.NoOverlap); !fmath.EQ(got, 3) {
		t.Errorf("no-overlap App2 period = %g, want 3", got)
	}
	if got := AppPeriod(&inst, &m, 0, pipeline.NoOverlap); !fmath.EQ(got, 2) {
		t.Errorf("no-overlap App1 period = %g, want 2", got)
	}
	if got := Period(&inst, &m, pipeline.NoOverlap); !fmath.EQ(got, 3) {
		t.Errorf("no-overlap global period = %g, want 3", got)
	}
}

func TestLatencyIdenticalAcrossModels(t *testing.T) {
	// Equation (5): latency does not depend on the communication model.
	inst := pipeline.MotivatingExample()
	for _, m := range []Mapping{periodOptimal(), latencyOptimal(), energyMinimal(), tradeOff()} {
		for a := range m.Apps {
			l := AppLatency(&inst, &m, a)
			if l <= 0 {
				t.Errorf("non-positive latency %g", l)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	inst := pipeline.MotivatingExample()
	cases := []struct {
		name string
		m    Mapping
		rule Rule
	}{
		{"wrong app count", Mapping{Apps: []AppMapping{{}}}, Interval},
		{"gap in coverage", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 0, Proc: 0, Mode: 0}, {From: 2, To: 2, Proc: 1, Mode: 0}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 2, Mode: 0}}},
		}}, Interval},
		{"reused processor", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: 0, Mode: 0}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 0, Mode: 0}}},
		}}, Interval},
		{"bad mode", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: 0, Mode: 5}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 1, Mode: 0}}},
		}}, Interval},
		{"incomplete coverage", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 1, Proc: 0, Mode: 0}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 1, Mode: 0}}},
		}}, Interval},
		{"interval under one-to-one", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: 0, Mode: 0}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 1, Mode: 0}}},
		}}, OneToOne},
		{"unknown processor", Mapping{Apps: []AppMapping{
			{Intervals: []PlacedInterval{{From: 0, To: 2, Proc: 9, Mode: 0}}},
			{Intervals: []PlacedInterval{{From: 0, To: 3, Proc: 1, Mode: 0}}},
		}}, Interval},
	}
	for _, c := range cases {
		if err := c.m.Validate(&inst, c.rule); err == nil {
			t.Errorf("%s: invalid mapping accepted", c.name)
		}
	}
}

func TestValidOneToOne(t *testing.T) {
	inst := pipeline.Instance{
		Apps:     []pipeline.Application{pipeline.NewUniformApplication("a", 3, 1)},
		Platform: pipeline.NewHomogeneousPlatform(4, []float64{1}, 1, 1),
		Energy:   pipeline.DefaultEnergy,
	}
	m := Mapping{Apps: []AppMapping{{Intervals: []PlacedInterval{
		{From: 0, To: 0, Proc: 2}, {From: 1, To: 1, Proc: 0}, {From: 2, To: 2, Proc: 3},
	}}}}
	if err := m.Validate(&inst, OneToOne); err != nil {
		t.Fatalf("valid one-to-one rejected: %v", err)
	}
	if err := m.Validate(&inst, Interval); err != nil {
		t.Fatalf("one-to-one must be a valid interval mapping: %v", err)
	}
	if got := m.NumIntervals(); got != 3 {
		t.Errorf("NumIntervals = %d, want 3", got)
	}
	used := m.UsedProcessors()
	if len(used) != 3 || used[0] != 0 || used[1] != 2 || used[2] != 3 {
		t.Errorf("UsedProcessors = %v", used)
	}
}

func TestWholeApp(t *testing.T) {
	inst := pipeline.MotivatingExample()
	am := WholeApp(&inst, 1, 2, 0)
	if len(am.Intervals) != 1 || am.Intervals[0].To != 3 {
		t.Errorf("WholeApp = %+v", am)
	}
}

func TestIntervalCost(t *testing.T) {
	if got := IntervalCost(pipeline.Overlap, 1, 5, 3); got != 5 {
		t.Errorf("overlap cost = %g, want 5", got)
	}
	if got := IntervalCost(pipeline.NoOverlap, 1, 5, 3); got != 9 {
		t.Errorf("no-overlap cost = %g, want 9", got)
	}
}

func TestWeightedObjective(t *testing.T) {
	inst := pipeline.MotivatingExample()
	inst.Apps[0].Weight = 10
	m := latencyOptimal()
	// App1 latency 2 weighted by 10 dominates App2's 2.75.
	if got := Latency(&inst, &m); !fmath.EQ(got, 20) {
		t.Errorf("weighted latency = %g, want 20", got)
	}
}

// TestPeriodLatencyInvariants checks structural properties on random
// single-application fully homogeneous instances: the no-overlap period
// dominates the overlap period, the latency dominates both, and scaling all
// speeds by c divides pure-compute costs by c.
func TestPeriodLatencyInvariants(t *testing.T) {
	f := func(rawW []uint8, split uint8, speedSel uint8) bool {
		if len(rawW) < 2 {
			return true
		}
		if len(rawW) > 12 {
			rawW = rawW[:12]
		}
		app := pipeline.Application{In: 1, Weight: 1}
		for _, r := range rawW {
			app.Stages = append(app.Stages, pipeline.Stage{Work: float64(r%9) + 1, Out: float64(r % 4)})
		}
		speed := float64(speedSel%5) + 1
		inst := pipeline.Instance{
			Apps:     []pipeline.Application{app},
			Platform: pipeline.NewHomogeneousPlatform(2, []float64{speed}, 2, 1),
			Energy:   pipeline.DefaultEnergy,
		}
		cut := int(split) % (app.NumStages() - 1)
		m := Mapping{Apps: []AppMapping{{Intervals: []PlacedInterval{
			{From: 0, To: cut, Proc: 0, Mode: 0},
			{From: cut + 1, To: app.NumStages() - 1, Proc: 1, Mode: 0},
		}}}}
		if err := m.Validate(&inst, Interval); err != nil {
			return false
		}
		to := Period(&inst, &m, pipeline.Overlap)
		tn := Period(&inst, &m, pipeline.NoOverlap)
		l := Latency(&inst, &m)
		if !fmath.LE(to, tn) {
			return false
		}
		// The latency includes every interval's compute and comms, so it
		// dominates any single cycle time.
		if !fmath.LE(to, l) {
			return false
		}
		// Energy of two enrolled processors at speed s.
		if !fmath.EQ(Energy(&inst, &m), 2*speed*speed) {
			return false
		}
		// The period is at least the bottleneck compute time.
		slowest := math.Max(app.IntervalWork(0, cut), app.IntervalWork(cut+1, app.NumStages()-1)) / speed
		return fmath.GE(to, slowest)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvaluateBundles(t *testing.T) {
	inst := pipeline.MotivatingExample()
	m := tradeOff()
	mt := Evaluate(&inst, &m, pipeline.Overlap)
	if !fmath.EQ(mt.Period, 2) || !fmath.EQ(mt.Energy, 46) {
		t.Errorf("Evaluate = %+v", mt)
	}
	if len(mt.AppPeriods) != 2 || len(mt.AppLatencies) != 2 {
		t.Errorf("per-app metrics missing: %+v", mt)
	}
	if !fmath.EQ(mt.AppPeriods[0], 2) {
		t.Errorf("App1 period = %g, want 2", mt.AppPeriods[0])
	}
}

func TestMappingString(t *testing.T) {
	m := periodOptimal()
	s := m.String()
	if s == "" {
		t.Error("empty mapping string")
	}
	c := m.Clone()
	c.Apps[0].Intervals[0].Proc = 9
	if m.Apps[0].Intervals[0].Proc == 9 {
		t.Error("Clone shares interval storage")
	}
}

func TestRuleString(t *testing.T) {
	if OneToOne.String() != "one-to-one" || Interval.String() != "interval" {
		t.Error("unexpected rule strings")
	}
}
