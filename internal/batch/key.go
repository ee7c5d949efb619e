package batch

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// keyWriter appends a canonical binary encoding of a job to a pooled
// buffer. Every field is written with an explicit length or presence tag so
// that no two distinct (instance, request) pairs share an encoding: floats
// are written as their IEEE-754 bit patterns (so 0 and -0 differ, and NaN
// payloads are preserved), slices are length-prefixed, and nil slices are
// distinguished from empty ones because the nil-ness of Request bounds is
// semantically meaningful to the solver ("unconstrained" versus
// "constrained"). The encoding itself is the map key — exact by
// construction, no hashing cost, and the string(buf) conversion is the only
// allocation per lookup.
type keyWriter struct {
	buf []byte
}

var keyPool = sync.Pool{New: func() any {
	return &keyWriter{buf: make([]byte, 0, 512)}
}}

func (k *keyWriter) u64(v uint64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, v)
}

func (k *keyWriter) i64(v int64)   { k.u64(uint64(v)) }
func (k *keyWriter) f64(v float64) { k.u64(math.Float64bits(v)) }

func (k *keyWriter) str(s string) {
	k.u64(uint64(len(s)))
	k.buf = append(k.buf, s...)
}

// floats writes a slice with a presence tag: nil and empty encode
// differently.
func (k *keyWriter) floats(xs []float64) {
	if xs == nil {
		k.u64(0)
		return
	}
	k.u64(1)
	k.u64(uint64(len(xs)))
	for _, x := range xs {
		k.f64(x)
	}
}

func (k *keyWriter) matrix(m [][]float64) {
	k.u64(uint64(len(m)))
	for _, row := range m {
		k.floats(row)
	}
}

// done snapshots the encoding into an immutable string key and returns the
// writer to the pool.
func (k *keyWriter) done() string {
	s := string(k.buf)
	k.release()
	return s
}

// release returns the writer to the pool; k.buf must not be used after.
func (k *keyWriter) release() {
	k.buf = k.buf[:0]
	keyPool.Put(k)
}

// Key returns a stable canonical key identifying a (instance, request)
// pair: two jobs receive the same key exactly when every field that can
// influence core.Solve (and the cosmetic names carried into reports) is
// identical. The key is the canonical byte encoding itself, so equality is
// exact by construction.
func Key(inst *pipeline.Instance, req core.Request) string {
	k := keyPool.Get().(*keyWriter)
	k.instance(inst)

	k.i64(int64(req.Rule))
	k.i64(int64(req.Model))
	k.i64(int64(req.Objective))
	k.floats(req.PeriodBounds)
	k.floats(req.LatencyBounds)
	k.f64(req.EnergyBudget)
	k.i64(req.ExactLimit)
	k.i64(req.Seed)
	k.i64(int64(req.HeurIters))
	k.i64(int64(req.HeurRestarts))

	return k.done()
}

// PlanKey returns the canonical key of a compiled plan's inputs: the
// instance plus the rule and communication model fixed at compile time.
// Jobs sharing a PlanKey can be answered by one compiled plan (see
// internal/plan); like Key, it is the canonical byte encoding itself.
func PlanKey(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) string {
	k := keyPool.Get().(*keyWriter)
	k.planKey(inst, rule, model)
	return k.done()
}

// planKey streams the PlanKey encoding.
func (k *keyWriter) planKey(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) {
	k.instance(inst)
	k.i64(int64(rule))
	k.i64(int64(model))
}

// instance streams the canonical instance encoding: every field that can
// influence the solver plus the cosmetic names carried into reports.
func (k *keyWriter) instance(inst *pipeline.Instance) {
	k.u64(uint64(len(inst.Apps)))
	for a := range inst.Apps {
		app := &inst.Apps[a]
		k.str(app.Name)
		k.f64(app.Weight)
		k.f64(app.In)
		k.u64(uint64(len(app.Stages)))
		for _, st := range app.Stages {
			k.f64(st.Work)
			k.f64(st.Out)
		}
	}
	k.u64(uint64(len(inst.Platform.Processors)))
	for u := range inst.Platform.Processors {
		pr := &inst.Platform.Processors[u]
		k.str(pr.Name)
		k.floats(pr.Speeds)
	}
	k.matrix(inst.Platform.Bandwidth)
	k.matrix(inst.Platform.InBandwidth)
	k.matrix(inst.Platform.OutBandwidth)
	k.f64(inst.Energy.Static)
	k.f64(inst.Energy.Alpha)
}
