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
// "constrained"). Bandwidth matrices are run-length coded at block level:
// a matrix or row whose entries all carry the same bits is written as a
// tag, its dimensions and the one value, so a communication-homogeneous
// platform costs O(1) key bytes instead of O(p²). The encoding itself is
// the map key — exact by construction, no hashing cost, and the
// string(buf) conversion is the only allocation per lookup.
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

// Block tags of the bandwidth encoding. A constant block is one whose
// entries all have the same bits; the tags keep the two forms of a matrix
// and the three forms of a row apart, so the encoding stays
// self-delimiting and two matrices encode alike exactly when they have
// the same row count, row nil-ness, row lengths and entry bits.
const (
	nilRow uint64 = iota
	fullRow
	constRow
	fullMatrix
	constMatrix
)

// matrix writes a bandwidth matrix: a non-empty rectangular matrix of
// one value as constMatrix, rows, columns and the value; anything else as
// fullMatrix, the row count and every row.
func (k *keyWriter) matrix(m [][]float64) {
	if v, ok := constant(m); ok {
		k.u64(constMatrix)
		k.u64(uint64(len(m)))
		k.u64(uint64(len(m[0])))
		k.u64(v)
		return
	}
	k.u64(fullMatrix)
	k.u64(uint64(len(m)))
	for _, row := range m {
		k.row(row)
	}
}

// row writes one matrix row: nilRow, constRow with the length and the
// value, or fullRow with the length and every entry.
func (k *keyWriter) row(xs []float64) {
	switch v, ok := constantRow(xs); {
	case xs == nil:
		k.u64(nilRow)
	case ok:
		k.u64(constRow)
		k.u64(uint64(len(xs)))
		k.u64(v)
	default:
		k.u64(fullRow)
		k.u64(uint64(len(xs)))
		for _, x := range xs {
			k.f64(x)
		}
	}
}

// constantRow reports whether xs is non-empty with every entry of the
// same bits, and returns those bits.
func constantRow(xs []float64) (uint64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v := math.Float64bits(xs[0])
	for _, x := range xs[1:] {
		if math.Float64bits(x) != v {
			return 0, false
		}
	}
	return v, true
}

// constant reports whether m has at least one row, every row of the same
// non-zero length and every entry of the same bits, and returns those
// bits.
func constant(m [][]float64) (uint64, bool) {
	if len(m) == 0 {
		return 0, false
	}
	v, ok := constantRow(m[0])
	if !ok {
		return 0, false
	}
	for _, row := range m[1:] {
		if w, ok := constantRow(row); !ok || w != v || len(row) != len(m[0]) {
			return 0, false
		}
	}
	return v, true
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
	k.request(req)
	return k.done()
}

// requestKey is the request part of Key: jobs that share a compiled plan
// are told apart by it alone.
func requestKey(req core.Request) string {
	k := keyPool.Get().(*keyWriter)
	k.request(req)
	return k.done()
}

// request streams every field of req.
func (k *keyWriter) request(req core.Request) {
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
}

// The two kinds of plan-tier key start with different tag bytes, so a
// canonical key never equals a wire key.
const (
	canonicalPlan byte = iota
	wirePlan
)

// PlanKey returns the canonical key of a compiled plan's inputs: the
// instance plus the rule and communication model fixed at compile time.
// Jobs sharing a PlanKey can be answered by one compiled plan (see
// internal/plan); like Key, it is the canonical byte encoding itself,
// after a tag byte that sets it apart from the plan tier's wire keys.
func PlanKey(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) string {
	k := keyPool.Get().(*keyWriter)
	k.planKey(inst, rule, model)
	return k.done()
}

// planKey streams the PlanKey encoding.
func (k *keyWriter) planKey(inst *pipeline.Instance, rule mapping.Rule, model pipeline.CommModel) {
	k.buf = append(k.buf, canonicalPlan)
	k.instance(inst)
	k.i64(int64(rule))
	k.i64(int64(model))
}

// wirePlanKey streams the plan tier's key for an instance document as
// sent: a tag byte, the rule, the model and the document's compact
// bytes. Documents that differ only in whitespace outside strings share
// the key; any other difference, even one the decoded instances would not
// show, keeps them apart.
func (k *keyWriter) wirePlanKey(doc []byte, rule mapping.Rule, model pipeline.CommModel) {
	k.buf = append(k.buf, wirePlan)
	k.i64(int64(rule))
	k.i64(int64(model))
	k.compact(doc)
}

// compact appends the JSON value doc as json.Compact prints it: the
// whitespace outside strings is dropped. doc must be valid JSON.
func (k *keyWriter) compact(doc []byte) {
	CompactRuns(doc, func(run []byte) { k.buf = append(k.buf, run...) })
}

// CompactRuns is the one definition of a JSON value's compact bytes, the
// bytes json.Compact prints: it calls yield, in order, with each maximal
// non-empty run of doc between whitespace outside strings. doc must be
// valid JSON. It allocates nothing, so the plan tier's wire keys and the
// gateway's route keys read compact bytes without copying them.
func CompactRuns(doc []byte, yield func(run []byte)) {
	inString := false
	from := 0
	for i := 0; i < len(doc); i++ {
		switch c := doc[i]; {
		case c > '"' && c != '\\':
			// Most bytes: none of them opens, closes or escapes in a
			// string, or is whitespace.
		case c == '"':
			inString = !inString
		case c == '\\':
			i++ // valid JSON has backslashes only in strings; skip the escaped byte
		case !inString:
			// Valid JSON has no byte below '"' outside strings but
			// whitespace.
			if from < i {
				yield(doc[from:i])
			}
			from = i + 1
		}
	}
	if from < len(doc) {
		yield(doc[from:])
	}
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
