package interval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fmath"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// refDP holds the single-bound dynamic programs as they were written
// before the curves shared one table: every call rebuilds its table,
// computes interval costs from the prefix sums and re-derives the
// candidate set. It is the reference the curves must match bit for bit.
type refDP struct {
	app    *pipeline.Application
	speeds []float64
	b      float64
	model  pipeline.CommModel
	pre    []float64
	n      int
}

func newRefDP(app *pipeline.Application, speeds []float64, b float64, model pipeline.CommModel) *refDP {
	return &refDP{app: app, speeds: speeds, b: b, model: model, pre: app.WorkPrefix(), n: app.NumStages()}
}

func (d *refDP) cost(f, t int, s float64) float64 {
	in := d.comm(d.app.InputSize(f))
	out := d.comm(d.app.OutputSize(t))
	comp := (d.pre[t+1] - d.pre[f]) / s
	return mapping.IntervalCost(d.model, in, comp, out)
}

func (d *refDP) comm(vol float64) float64 {
	if vol == 0 {
		return 0
	}
	return vol / d.b
}

func (d *refDP) fastest() float64 { return d.speeds[len(d.speeds)-1] }

func refMatrix(rows, cols int, fill float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

func refIntMatrix(rows, cols int, fill int) [][]int {
	m := make([][]int, rows)
	for i := range m {
		m[i] = make([]int, cols)
		for j := range m[i] {
			m[i][j] = fill
		}
	}
	return m
}

func (d *refDP) backtrack(cut [][]int, k, mode int) []Choice {
	out := make([]Choice, k)
	i := d.n
	for kk := k; kk >= 1; kk-- {
		j := cut[i][kk]
		out[kk-1] = Choice{From: j, To: i - 1, Mode: mode}
		i = j
	}
	return out
}

func (d *refDP) MinLatencyGivenPeriod(maxProcs int, periodBound float64) (float64, []Choice, bool) {
	q := min(maxProcs, d.n)
	s := d.fastest()
	lat := refMatrix(d.n+1, q+1, math.Inf(1))
	cut := refIntMatrix(d.n+1, q+1, -1)
	for i := 1; i <= d.n; i++ {
		if fmath.LE(d.cost(0, i-1, s), periodBound) {
			lat[i][1] = d.comm(d.app.In) + (d.pre[i]-d.pre[0])/s + d.comm(d.app.OutputSize(i-1))
			cut[i][1] = 0
		}
	}
	for k := 2; k <= q; k++ {
		for i := k; i <= d.n; i++ {
			for j := k - 1; j < i; j++ {
				if math.IsInf(lat[j][k-1], 1) || !fmath.LE(d.cost(j, i-1, s), periodBound) {
					continue
				}
				v := lat[j][k-1] + (d.pre[i]-d.pre[j])/s + d.comm(d.app.OutputSize(i-1))
				if v < lat[i][k] {
					lat[i][k] = v
					cut[i][k] = j
				}
			}
		}
	}
	bestL := math.Inf(1)
	bestK := 0
	for k := 1; k <= q; k++ {
		if lat[d.n][k] < bestL {
			bestL = lat[d.n][k]
			bestK = k
		}
	}
	if bestK == 0 {
		return math.Inf(1), nil, false
	}
	return bestL, d.backtrack(cut, bestK, len(d.speeds)-1), true
}

func (d *refDP) PeriodCandidates() []float64 {
	s := d.fastest()
	var cands []float64
	for f := 0; f < d.n; f++ {
		for t := f; t < d.n; t++ {
			cands = append(cands, d.cost(f, t, s))
		}
	}
	return fmath.SortedUnique(cands)
}

func (d *refDP) MinPeriodGivenLatency(maxProcs int, latencyBound float64) (float64, []Choice, bool) {
	cands := d.PeriodCandidates()
	lo, hi := 0, len(cands)-1
	var bestPart []Choice
	bestT := math.Inf(1)
	for lo <= hi {
		mid := (lo + hi) / 2
		l, part, ok := d.MinLatencyGivenPeriod(maxProcs, cands[mid])
		if ok && fmath.LE(l, latencyBound) {
			bestT = cands[mid]
			bestPart = part
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestPart == nil {
		return math.Inf(1), nil, false
	}
	return bestT, bestPart, true
}

func (d *refDP) MinEnergyGivenPeriod(maxProcs int, periodBound float64, em pipeline.EnergyModel) (float64, []Choice, bool) {
	q := min(maxProcs, d.n)
	cheap := refIntMatrix(d.n, d.n, -1)
	for f := 0; f < d.n; f++ {
		for t := f; t < d.n; t++ {
			for mode, s := range d.speeds {
				if fmath.LE(d.cost(f, t, s), periodBound) {
					cheap[f][t] = mode
					break
				}
			}
		}
	}
	eng := refMatrix(d.n+1, q+1, math.Inf(1))
	cut := refIntMatrix(d.n+1, q+1, -1)
	for i := 1; i <= d.n; i++ {
		if m := cheap[0][i-1]; m >= 0 {
			eng[i][1] = em.Power(d.speeds[m])
			cut[i][1] = 0
		}
	}
	for k := 2; k <= q; k++ {
		for i := k; i <= d.n; i++ {
			for j := k - 1; j < i; j++ {
				m := cheap[j][i-1]
				if m < 0 || math.IsInf(eng[j][k-1], 1) {
					continue
				}
				v := eng[j][k-1] + em.Power(d.speeds[m])
				if v < eng[i][k] {
					eng[i][k] = v
					cut[i][k] = j
				}
			}
		}
	}
	bestE := math.Inf(1)
	bestK := 0
	for k := 1; k <= q; k++ {
		if eng[d.n][k] < bestE {
			bestE = eng[d.n][k]
			bestK = k
		}
	}
	if bestK == 0 {
		return math.Inf(1), nil, false
	}
	part := d.backtrack(cut, bestK, 0)
	for i := range part {
		part[i].Mode = cheap[part[i].From][part[i].To]
	}
	return bestE, part, true
}

// refCurve is the per-q loop the multi-application wrappers ran: one
// single-bound solve per processor count, +Inf and nil where infeasible.
func refCurve(mx int, solve func(q int) (float64, []Choice, bool)) ([]float64, [][]Choice) {
	curve := make([]float64, mx)
	parts := make([][]Choice, mx)
	for q := 1; q <= mx; q++ {
		v, part, ok := solve(q)
		if !ok {
			curve[q-1] = math.Inf(1)
			continue
		}
		curve[q-1], parts[q-1] = v, part
	}
	return curve, parts
}

// randomDP draws one application of 1-21 stages on 1-3 common modes with a
// random uniform bandwidth and communication model, and returns its
// dynamic programs with the reference for them.
func randomDP(rng *rand.Rand) (*SingleDP, *refDP, pipeline.EnergyModel) {
	modes := 1 + rng.Intn(3)
	cfg := workload.Config{
		Apps: 1, MinStages: 1, MaxStages: 21, Procs: 1, Modes: modes,
		Class: pipeline.FullyHomogeneous, MaxWork: 1 + rng.Intn(12), MaxData: rng.Intn(6), MaxSpeed: 8,
		Bandwidth: float64(1 + rng.Intn(3)),
	}
	inst := workload.MustInstance(rng, cfg)
	em := pipeline.EnergyModel{Static: float64(rng.Intn(3)), Alpha: 2 + rng.Float64()}
	model := pipeline.CommModel(rng.Intn(2))
	app, speeds := &inst.Apps[0], inst.Platform.Processors[0].Speeds
	return NewSingleDP(app, speeds, cfg.Bandwidth, model), newRefDP(app, speeds, cfg.Bandwidth, model), em
}

func sameCurve(t *testing.T, what string, trial int, got, want []float64, gotParts, wantParts [][]Choice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d %s: %d values, want %d", trial, what, len(got), len(want))
	}
	for q := range want {
		if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
			t.Fatalf("trial %d %s: q=%d value %v (%#x), reference %v (%#x)", trial, what, q+1,
				got[q], math.Float64bits(got[q]), want[q], math.Float64bits(want[q]))
		}
		if !reflect.DeepEqual(gotParts[q], wantParts[q]) {
			t.Fatalf("trial %d %s: q=%d partition %v, reference %v", trial, what, q+1, gotParts[q], wantParts[q])
		}
	}
}

// TestCurvesMatchPerQReference: on random applications, the one-table
// LatencyCurve, PeriodCurve and EnergyCurve equal the per-q loops over the
// reference single-bound solves bit for bit, for every q up to beyond the
// stage count, including infeasible q. Bounds are drawn around the period
// candidates and the unbounded latencies, so small q are often infeasible;
// the test checks that enough curves turn feasible part way and run past
// the stage count.
func TestCurvesMatchPerQReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	partial, beyond := 0, 0
	for trial := 0; trial < 300; trial++ {
		d, ref, em := randomDP(rng)
		mx := 1 + rng.Intn(d.n+4)
		cands := ref.PeriodCandidates()
		periodBound := cands[rng.Intn(len(cands))] * (0.9 + 0.2*rng.Float64())
		whole, _, _ := ref.MinLatencyGivenPeriod(1, math.Inf(1))
		latencyBound := whole * (0.95 + 0.5*rng.Float64())
		if trial%10 == 0 {
			periodBound, latencyBound = math.Inf(1), math.Inf(1)
		}

		got, gotParts := d.LatencyCurve(mx, periodBound)
		want, wantParts := refCurve(mx, func(q int) (float64, []Choice, bool) {
			return ref.MinLatencyGivenPeriod(q, periodBound)
		})
		sameCurve(t, "latency", trial, got, want, gotParts, wantParts)
		if math.IsInf(got[0], 1) && !math.IsInf(got[mx-1], 1) {
			partial++
		}
		if mx > d.n {
			beyond++
		}

		got, gotParts = d.PeriodCurve(mx, latencyBound)
		want, wantParts = refCurve(mx, func(q int) (float64, []Choice, bool) {
			return ref.MinPeriodGivenLatency(q, latencyBound)
		})
		sameCurve(t, "period", trial, got, want, gotParts, wantParts)

		got, gotParts = d.EnergyCurve(mx, periodBound, em)
		want, wantParts = refCurve(mx, func(q int) (float64, []Choice, bool) {
			return ref.MinEnergyGivenPeriod(q, periodBound, em)
		})
		sameCurve(t, "energy", trial, got, want, gotParts, wantParts)

		// The single-bound methods read the same tables.
		q := 1 + rng.Intn(mx)
		for _, c := range []struct {
			what      string
			got, want func() (float64, []Choice, bool)
		}{
			{"single latency", func() (float64, []Choice, bool) { return d.MinLatencyGivenPeriod(q, periodBound) },
				func() (float64, []Choice, bool) { return ref.MinLatencyGivenPeriod(q, periodBound) }},
			{"single period", func() (float64, []Choice, bool) { return d.MinPeriodGivenLatency(q, latencyBound) },
				func() (float64, []Choice, bool) { return ref.MinPeriodGivenLatency(q, latencyBound) }},
			{"single energy", func() (float64, []Choice, bool) { return d.MinEnergyGivenPeriod(q, periodBound, em) },
				func() (float64, []Choice, bool) { return ref.MinEnergyGivenPeriod(q, periodBound, em) }},
		} {
			gv, gp, gok := c.got()
			wv, wp, wok := c.want()
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) || !reflect.DeepEqual(gp, wp) {
				t.Fatalf("trial %d %s q=%d: (%v %v %v), reference (%v %v %v)", trial, c.what, q, gv, gp, gok, wv, wp, wok)
			}
		}
	}
	if partial < 30 || beyond < 30 {
		t.Errorf("only %d latency curves turn feasible part way and %d run past the stage count", partial, beyond)
	}
}

// benchDP is a 21-stage application on three common modes, the largest
// plan-sweep shape, with a period bound that leaves one processor
// infeasible and a latency bound 30% above the whole-chain latency.
func benchDP() (d *SingleDP, em pipeline.EnergyModel, periodBound, latencyBound float64) {
	rng := rand.New(rand.NewSource(1505))
	cfg := workload.Config{
		Apps: 1, MinStages: 21, MaxStages: 21, Procs: 11, Modes: 3,
		Class: pipeline.FullyHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8, Bandwidth: 1,
	}
	inst := workload.MustInstance(rng, cfg)
	d = NewSingleDP(&inst.Apps[0], inst.Platform.Processors[0].Speeds, 1, pipeline.Overlap)
	whole, _, _ := d.MinLatencyGivenPeriod(1, math.Inf(1))
	return d, pipeline.DefaultEnergy, d.fast[(d.n-1)*d.n] / 2, 1.3 * whole
}

// BenchmarkSingleDPCurves times one application's curve over processor
// counts 1..11 for each bounded criterion.
func BenchmarkSingleDPCurves(b *testing.B) {
	d, em, periodBound, latencyBound := benchDP()
	const mx = 11
	b.Run("latency", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			d.LatencyCurve(mx, periodBound)
		}
	})
	b.Run("period", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			d.PeriodCurve(mx, latencyBound)
		}
	})
	b.Run("energy", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			d.EnergyCurve(mx, periodBound, em)
		}
	})
}
