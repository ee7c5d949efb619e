package batch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// flatKey is the key encoding before block coding of bandwidth matrices:
// every matrix written as its row count and every row in full. It is the
// reference TestKeyEqualityClasses compares the block-coded keys with.
func flatKey(inst *pipeline.Instance, req core.Request) string {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) { u64(uint64(len(s))); b = append(b, s...) }
	floats := func(xs []float64) {
		if xs == nil {
			u64(0)
			return
		}
		u64(1)
		u64(uint64(len(xs)))
		for _, x := range xs {
			f64(x)
		}
	}
	matrix := func(m [][]float64) {
		u64(uint64(len(m)))
		for _, row := range m {
			floats(row)
		}
	}
	u64(uint64(len(inst.Apps)))
	for _, app := range inst.Apps {
		str(app.Name)
		f64(app.Weight)
		f64(app.In)
		u64(uint64(len(app.Stages)))
		for _, st := range app.Stages {
			f64(st.Work)
			f64(st.Out)
		}
	}
	u64(uint64(len(inst.Platform.Processors)))
	for _, pr := range inst.Platform.Processors {
		str(pr.Name)
		floats(pr.Speeds)
	}
	matrix(inst.Platform.Bandwidth)
	matrix(inst.Platform.InBandwidth)
	matrix(inst.Platform.OutBandwidth)
	f64(inst.Energy.Static)
	f64(inst.Energy.Alpha)

	u64(uint64(req.Rule))
	u64(uint64(req.Model))
	u64(uint64(req.Objective))
	floats(req.PeriodBounds)
	floats(req.LatencyBounds)
	f64(req.EnergyBudget)
	u64(uint64(req.ExactLimit))
	u64(uint64(req.Seed))
	u64(uint64(req.HeurIters))
	u64(uint64(req.HeurRestarts))
	return string(b)
}

// randomMatrix draws a bandwidth matrix of one of the shapes the key must
// keep apart: uniform (as uniformBandwidth decodes), explicit all-equal,
// ±0 entries, NaN entries, one entry off, ragged rows, nil rows, a
// mismatched shape, empty and nil. Values come from a tiny pool so that
// independent draws often coincide.
func randomMatrix(rng *rand.Rand, rows, cols int) [][]float64 {
	pool := []float64{1, 2, math.Copysign(0, -1), 0, math.NaN()}
	fill := func(r, c int, v float64) [][]float64 {
		m := make([][]float64, r)
		for i := range m {
			m[i] = make([]float64, c)
			for j := range m[i] {
				m[i][j] = v
			}
		}
		return m
	}
	switch rng.Intn(10) {
	case 0, 1: // uniform
		return fill(rows, cols, pool[rng.Intn(2)])
	case 2: // all-equal in one of the zero or NaN forms
		return fill(rows, cols, pool[2+rng.Intn(3)])
	case 3: // one entry off
		m := fill(rows, cols, pool[rng.Intn(2)])
		m[rng.Intn(rows)][rng.Intn(cols)] = pool[rng.Intn(len(pool))]
		return m
	case 4: // entries drawn independently
		m := fill(rows, cols, 0)
		for i := range m {
			for j := range m[i] {
				m[i][j] = pool[rng.Intn(len(pool))]
			}
		}
		return m
	case 5: // ragged: one row shorter, longer or emptied
		m := fill(rows, cols, pool[rng.Intn(2)])
		r := rng.Intn(rows)
		switch rng.Intn(3) {
		case 0:
			m[r] = m[r][:cols-1]
		case 1:
			m[r] = append(m[r], m[r][0])
		default:
			m[r] = []float64{}
		}
		return m
	case 6: // a nil row
		m := fill(rows, cols, pool[rng.Intn(2)])
		m[rng.Intn(rows)] = nil
		return m
	case 7: // mismatched shape: transposed, or one row too many or few
		switch rng.Intn(3) {
		case 0:
			return fill(cols, rows, pool[rng.Intn(2)])
		case 1:
			return fill(rows+1, cols, pool[rng.Intn(2)])
		default:
			return fill(max(rows-1, 0), cols, pool[rng.Intn(2)])
		}
	case 8: // empty
		return [][]float64{}
	default:
		return nil
	}
}

// TestKeyEqualityClasses is the block coding's contract: on random
// instances, two block-coded keys are equal exactly when the two flat
// keys are. The bench corpus deduplicates jobs by Key, so the classes,
// not just the bytes, must be those of the flat encoding.
func TestKeyEqualityClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// A few fixed bases, so that instances differ only in their matrices.
	var bases []pipeline.Instance
	for procs := 1; procs <= 3; procs++ {
		for apps := 1; apps <= 2; apps++ {
			bases = append(bases, workload.MustInstance(rand.New(rand.NewSource(1)), workload.Config{
				Apps: apps, MinStages: 1, MaxStages: 1, Procs: procs, Modes: 1,
				Class: pipeline.FullyHomogeneous, MaxWork: 1, MaxData: 1, MaxSpeed: 1,
			}))
		}
	}
	// Most matrices are copies of a few drawn per shape, so that whole
	// instances coincide often; the rest are fresh draws.
	pools := make(map[[2]int][][][]float64)
	matrix := func(rows, cols int) [][]float64 {
		pool := pools[[2]int{rows, cols}]
		for len(pool) < 3 {
			pool = append(pool, randomMatrix(rng, rows, cols))
		}
		pools[[2]int{rows, cols}] = pool
		if rng.Intn(4) == 0 {
			return randomMatrix(rng, rows, cols)
		}
		src := pool[rng.Intn(len(pool))]
		if src == nil {
			return nil
		}
		m := make([][]float64, len(src))
		for i, row := range src {
			if row != nil {
				m[i] = append([]float64{}, row...)
			}
		}
		return m
	}
	draw := func() (pipeline.Instance, core.Request) {
		inst := bases[rng.Intn(len(bases))].Clone()
		p, a := len(inst.Platform.Processors), len(inst.Apps)
		inst.Platform.Bandwidth = matrix(p, p)
		inst.Platform.InBandwidth = matrix(a, p)
		inst.Platform.OutBandwidth = matrix(a, p)
		return inst, core.Request{Objective: core.Criterion(rng.Intn(2))}
	}
	const n = 600
	insts := make([]pipeline.Instance, n)
	reqs := make([]core.Request, n)
	for i := range insts {
		insts[i], reqs[i] = draw()
	}
	equal := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			flat := flatKey(&insts[i], reqs[i]) == flatKey(&insts[j], reqs[j])
			block := Key(&insts[i], reqs[i]) == Key(&insts[j], reqs[j])
			if flat != block {
				t.Fatalf("instances %d and %d: flat keys equal %v, block keys equal %v\n%v\n%v",
					i, j, flat, block, insts[i].Platform, insts[j].Platform)
			}
			if flat && i != j {
				equal++
			}
		}
	}
	// The draw must produce collisions, or the test only shows that
	// distinct stays distinct.
	if equal < n/2 {
		t.Errorf("only %d equal pairs among %d draws", equal, n)
	}
}

// TestKeyUniformMatchesExplicit pins that a platform decoded from
// uniformBandwidth and the same platform with the matrices spelled out
// share their keys, and that a uniform platform's key no longer grows
// with p².
func TestKeyUniformMatchesExplicit(t *testing.T) {
	req := core.Request{Objective: core.Period}
	small := pipeline.MotivatingExample()
	explicit := small.Clone()
	for _, m := range [][][]float64{explicit.Platform.Bandwidth, explicit.Platform.InBandwidth, explicit.Platform.OutBandwidth} {
		for i := range m {
			m[i] = append([]float64(nil), m[i]...)
		}
	}
	if Key(&small, req) != Key(&explicit, req) {
		t.Error("explicit copy of a uniform platform keys differently")
	}

	big := planSweepShape()
	if n := len(Key(&big, req)); n > 4096 {
		t.Errorf("uniform 47-processor key is %d bytes", n)
	}
	if pk, fk := PlanKey(&big, mapping.OneToOne, pipeline.Overlap), flatKey(&big, req); len(pk)*4 > len(fk) {
		t.Errorf("plan key %d bytes, flat key %d bytes: block coding saved too little", len(pk), len(fk))
	}
}

// planSweepShape is the largest instance of the bench plan-sweep
// workload: a 47-processor communication-homogeneous platform with 3
// applications of 15 stages.
func planSweepShape() pipeline.Instance {
	return workload.MustInstance(rand.New(rand.NewSource(7)), workload.Config{
		Apps: 3, MinStages: 15, MaxStages: 15, Procs: 47, Modes: 3,
		Class: pipeline.CommHomogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	})
}

// BenchmarkKey and BenchmarkPlanKey time the canonical keys on the
// plan-sweep shape (uniform links, block coded) and on a fully
// heterogeneous instance of the same size (every matrix in full).
func BenchmarkKey(b *testing.B) {
	for _, bc := range keyShapes() {
		b.Run(bc.name, func(b *testing.B) {
			req := core.Request{Rule: mapping.OneToOne, Objective: core.Energy,
				PeriodBounds: core.UniformBounds(&bc.inst, 40)}
			b.ReportAllocs()
			b.SetBytes(int64(len(Key(&bc.inst, req))))
			for i := 0; i < b.N; i++ {
				Key(&bc.inst, req)
			}
		})
	}
}

func BenchmarkPlanKey(b *testing.B) {
	for _, bc := range keyShapes() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PlanKey(&bc.inst, mapping.OneToOne, pipeline.Overlap)
			}
		})
	}
}

func keyShapes() []struct {
	name string
	inst pipeline.Instance
} {
	hetero := workload.MustInstance(rand.New(rand.NewSource(7)), workload.Config{
		Apps: 3, MinStages: 15, MaxStages: 15, Procs: 47, Modes: 3,
		Class: pipeline.FullyHeterogeneous, MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4,
	})
	return []struct {
		name string
		inst pipeline.Instance
	}{{"comm-homogeneous-47", planSweepShape()}, {"heterogeneous-47", hetero}}
}
