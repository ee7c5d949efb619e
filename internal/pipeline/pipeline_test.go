package pipeline

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestApplicationValidate(t *testing.T) {
	cases := []struct {
		name string
		app  Application
		ok   bool
	}{
		{"valid", Application{Stages: []Stage{{Work: 1}}}, true},
		{"no stages", Application{}, false},
		{"zero work", Application{Stages: []Stage{{Work: 0}}}, false},
		{"negative work", Application{Stages: []Stage{{Work: -1}}}, false},
		{"negative out", Application{Stages: []Stage{{Work: 1, Out: -2}}}, false},
		{"negative in", Application{In: -1, Stages: []Stage{{Work: 1}}}, false},
		{"negative weight", Application{Weight: -1, Stages: []Stage{{Work: 1}}}, false},
		{"zero data ok", Application{Stages: []Stage{{Work: 1, Out: 0}}}, true},
	}
	for _, c := range cases {
		err := c.app.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestApplicationAccessors(t *testing.T) {
	app := Application{
		In:     5,
		Stages: []Stage{{Work: 1, Out: 2}, {Work: 3, Out: 4}, {Work: 5, Out: 6}},
	}
	if got := app.NumStages(); got != 3 {
		t.Errorf("NumStages = %d, want 3", got)
	}
	if got := app.TotalWork(); got != 9 {
		t.Errorf("TotalWork = %g, want 9", got)
	}
	if got := app.IntervalWork(1, 2); got != 8 {
		t.Errorf("IntervalWork(1,2) = %g, want 8", got)
	}
	if got := app.InputSize(0); got != 5 {
		t.Errorf("InputSize(0) = %g, want 5 (delta^0)", got)
	}
	if got := app.InputSize(2); got != 4 {
		t.Errorf("InputSize(2) = %g, want 4", got)
	}
	if got := app.OutputSize(2); got != 6 {
		t.Errorf("OutputSize(2) = %g, want 6", got)
	}
	if got := app.EffectiveWeight(); got != 1 {
		t.Errorf("EffectiveWeight of zero weight = %g, want 1", got)
	}
	app.Weight = 2.5
	if got := app.EffectiveWeight(); got != 2.5 {
		t.Errorf("EffectiveWeight = %g, want 2.5", got)
	}
	pre := app.WorkPrefix()
	want := []float64{0, 1, 4, 9}
	for i := range want {
		if pre[i] != want[i] {
			t.Errorf("WorkPrefix[%d] = %g, want %g", i, pre[i], want[i])
		}
	}
}

func TestWorkPrefixMatchesIntervalWork(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		app := Application{}
		for _, r := range raw {
			app.Stages = append(app.Stages, Stage{Work: float64(r%50) + 1})
		}
		pre := app.WorkPrefix()
		n := app.NumStages()
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if math.Abs(pre[j+1]-pre[i]-app.IntervalWork(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformApplication(t *testing.T) {
	app := NewUniformApplication("u", 4, 2)
	if app.NumStages() != 4 || app.TotalWork() != 8 {
		t.Fatalf("unexpected uniform application %+v", app)
	}
	for _, st := range app.Stages {
		if st.Out != 0 {
			t.Fatalf("uniform application should have no communication")
		}
	}
}

func TestPlatformClassification(t *testing.T) {
	hom := NewHomogeneousPlatform(3, []float64{1, 2}, 1, 1)
	if got := hom.Classify(); got != FullyHomogeneous {
		t.Errorf("homogeneous platform classified as %v", got)
	}
	ch := NewCommHomogeneousPlatform([][]float64{{1}, {2}}, 1, 1)
	if got := ch.Classify(); got != CommHomogeneous {
		t.Errorf("comm-homogeneous platform classified as %v", got)
	}
	het := NewCommHomogeneousPlatform([][]float64{{1}, {2}}, 1, 1)
	het.Bandwidth[0][1] = 3
	het.Bandwidth[1][0] = 3
	if got := het.Classify(); got != FullyHeterogeneous {
		t.Errorf("heterogeneous platform classified as %v", got)
	}
	// Identical speed sets with heterogeneous links is still fully het.
	het2 := NewHomogeneousPlatform(2, []float64{1}, 1, 1)
	het2.InBandwidth[0][0] = 9
	if got := het2.Classify(); got != FullyHeterogeneous {
		t.Errorf("het-links platform classified as %v", got)
	}
}

func TestPlatformValidate(t *testing.T) {
	good := NewHomogeneousPlatform(2, []float64{1, 2}, 1, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
	bad := good.Clone()
	bad.Bandwidth[0][1] = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	bad = good.Clone()
	bad.Bandwidth[0][1] = 2 // asymmetric
	if err := bad.Validate(); err == nil {
		t.Error("asymmetric bandwidth accepted")
	}
	bad = good.Clone()
	bad.Processors[0].Speeds = []float64{2, 1}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted speeds accepted")
	}
	bad = good.Clone()
	bad.Processors[1].Speeds = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty speed set accepted")
	}
	bad = good.Clone()
	bad.InBandwidth[0][0] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero virtual bandwidth accepted")
	}
}

// TestValidateRejectsNonFinite: NaN and the infinities pass every "< 0"
// and "<= 0" test, so each numeric field needs its own finiteness check.
// One case per field; the error must name the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		set   func(in *Instance, x float64)
	}{
		{"input size", func(in *Instance, x float64) { in.Apps[0].In = x }},
		{"weight", func(in *Instance, x float64) { in.Apps[0].Weight = x }},
		{"work", func(in *Instance, x float64) { in.Apps[0].Stages[1].Work = x }},
		{"output size", func(in *Instance, x float64) { in.Apps[0].Stages[1].Out = x }},
		{"speed", func(in *Instance, x float64) {
			sp := in.Platform.Processors[1].Speeds
			sp[len(sp)-1] = x
		}},
		{"bandwidth[0][1]", func(in *Instance, x float64) {
			in.Platform.Bandwidth[0][1], in.Platform.Bandwidth[1][0] = x, x
		}},
		{"in bandwidth", func(in *Instance, x float64) { in.Platform.InBandwidth[1][0] = x }},
		{"out bandwidth", func(in *Instance, x float64) { in.Platform.OutBandwidth[0][1] = x }},
		{"alpha", func(in *Instance, x float64) { in.Energy.Alpha = x }},
		{"static energy", func(in *Instance, x float64) { in.Energy.Static = x }},
	}
	base := MotivatingExample()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			inst := base.Clone()
			c.set(&inst, x)
			err := inst.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", c.field, x)
				continue
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %g: error %q does not name the field", c.field, x, err)
			}
		}
	}
}

func TestUniModal(t *testing.T) {
	uni := NewHomogeneousPlatform(2, []float64{3}, 1, 1)
	if !uni.UniModal() {
		t.Error("uni-modal platform not detected")
	}
	multi := NewHomogeneousPlatform(2, []float64{1, 3}, 1, 1)
	if multi.UniModal() {
		t.Error("multi-modal platform reported uni-modal")
	}
}

func TestEnergyModel(t *testing.T) {
	e := EnergyModel{Static: 1, Alpha: 3}
	if got := e.Power(2); got != 9 {
		t.Errorf("Power(2) = %g, want 9", got)
	}
	def := EnergyModel{}
	if got := def.Power(3); got != 9 {
		t.Errorf("default alpha Power(3) = %g, want 9", got)
	}
	if err := (EnergyModel{Alpha: 1}).Validate(); err == nil {
		t.Error("alpha = 1 accepted")
	}
	if err := (EnergyModel{Alpha: 0.5}).Validate(); err == nil {
		t.Error("alpha < 1 accepted")
	}
	if err := (EnergyModel{Static: -1, Alpha: 2}).Validate(); err == nil {
		t.Error("negative static accepted")
	}
}

func TestInstanceValidate(t *testing.T) {
	inst := MotivatingExample()
	if err := inst.Validate(); err != nil {
		t.Fatalf("motivating example invalid: %v", err)
	}
	if got := inst.TotalStages(); got != 7 {
		t.Errorf("TotalStages = %d, want 7", got)
	}
	// Platform sized for the wrong number of apps must fail.
	bad := inst.Clone()
	bad.Apps = bad.Apps[:1]
	if err := bad.Validate(); err == nil {
		t.Error("mis-sized virtual links accepted")
	}
}

func TestSpecialApp(t *testing.T) {
	inst := Instance{
		Apps: []Application{
			NewUniformApplication("a", 3, 1),
			NewUniformApplication("b", 5, 1),
		},
		Platform: NewCommHomogeneousPlatform([][]float64{{1}, {2}, {3}}, 1, 2),
		Energy:   DefaultEnergy,
	}
	if !inst.SpecialApp() {
		t.Error("special-app instance not detected")
	}
	inst.Apps[0].Stages[1].Work = 2
	if inst.SpecialApp() {
		t.Error("non-uniform works accepted as special-app")
	}
	inst.Apps[0].Stages[1].Work = 1
	inst.Apps[1].Stages[0].Out = 1
	if inst.SpecialApp() {
		t.Error("instance with communication accepted as special-app")
	}
	if (&Instance{}).SpecialApp() {
		t.Error("empty instance accepted as special-app")
	}
}

func TestMotivatingExampleShape(t *testing.T) {
	inst := MotivatingExample()
	if inst.Platform.Classify() != CommHomogeneous {
		t.Errorf("motivating example platform class = %v, want comm-homogeneous", inst.Platform.Classify())
	}
	wantW1 := []float64{3, 2, 1}
	wantW2 := []float64{2, 6, 4, 2}
	for i, w := range wantW1 {
		if inst.Apps[0].Stages[i].Work != w {
			t.Errorf("app1 stage %d work = %g, want %g", i, inst.Apps[0].Stages[i].Work, w)
		}
	}
	for i, w := range wantW2 {
		if inst.Apps[1].Stages[i].Work != w {
			t.Errorf("app2 stage %d work = %g, want %g", i, inst.Apps[1].Stages[i].Work, w)
		}
	}
	if inst.Apps[0].In != 1 || inst.Apps[0].Stages[2].Out != 0 {
		t.Error("app1 endpoint data sizes wrong")
	}
	if inst.Apps[1].In != 0 || inst.Apps[1].Stages[3].Out != 1 {
		t.Error("app2 endpoint data sizes wrong")
	}
	// delta^2 of app2 must be 1 (used by the period-optimal split in Eq. 1).
	if inst.Apps[1].Stages[1].Out != 1 {
		t.Error("app2 delta^2 must be 1 to match Equation (1)")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	inst := MotivatingExample()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, &inst); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back.Apps) != 2 || back.Apps[1].Stages[1].Work != 6 {
		t.Fatalf("round trip lost data: %+v", back.Apps)
	}
	if b, ok := back.Platform.HomogeneousLinks(); !ok || b != 1 {
		t.Fatalf("round trip lost uniform bandwidth")
	}
	if back.Energy.Alpha != 2 {
		t.Fatalf("round trip lost energy model: %+v", back.Energy)
	}
}

func TestJSONHeterogeneousRoundTrip(t *testing.T) {
	inst := MotivatingExample()
	inst.Platform.Bandwidth[0][1] = 4
	inst.Platform.Bandwidth[1][0] = 4
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, &inst); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Platform.Bandwidth[0][1] != 4 {
		t.Fatalf("heterogeneous bandwidth lost in round trip")
	}
}

func TestJSONDecodeRejectsInvalid(t *testing.T) {
	bad := `{"apps":[{"in":0,"stages":[{"work":-1,"out":0}]}],"platform":{"processors":[{"speeds":[1]}]}}`
	if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid instance accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`{"unknown":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestClassStrings(t *testing.T) {
	if FullyHomogeneous.String() == "" || CommHomogeneous.String() == "" || FullyHeterogeneous.String() == "" {
		t.Error("empty class strings")
	}
	if Overlap.String() != "overlap" || NoOverlap.String() != "no-overlap" {
		t.Error("unexpected comm model strings")
	}
}

func TestCloneIsDeep(t *testing.T) {
	inst := MotivatingExample()
	c := inst.Clone()
	c.Apps[0].Stages[0].Work = 99
	c.Platform.Bandwidth[0][1] = 99
	c.Platform.Processors[0].Speeds[0] = 99
	if inst.Apps[0].Stages[0].Work == 99 || inst.Platform.Bandwidth[0][1] == 99 || inst.Platform.Processors[0].Speeds[0] == 99 {
		t.Error("Clone shares memory with original")
	}
}

func TestCriterionStrings(t *testing.T) {
	if Period.String() != "period" || Latency.String() != "latency" || Energy.String() != "energy" {
		t.Error("unexpected criterion strings")
	}
	for _, c := range []Criterion{Period, Latency, Energy} {
		got, err := ParseCriterion(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCriterion(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseCriterion("throughput"); err == nil || !strings.Contains(err.Error(), `unknown objective "throughput"`) {
		t.Errorf("ParseCriterion(throughput) error = %v, want unknown objective", err)
	}
}
