// Routing on bytes. A job's route key is a hash of its instance bytes
// alone, in their compact form (batch.CompactRuns): the job's own
// instance if it has one, and the file-level instance otherwise. So
// every job on one instance — a /v1/solve body, any job of a /v1/batch
// document, a /v1/resolve, /v1/pareto or /v1/simulate body — routes to
// the replica that holds that instance's compiled plan, and a batch of
// jobs on one instance is one sub-batch. A batch whose jobs one replica
// owns is posted to it as the client sent it. Other sub-batches are
// spliced from the parts as the client sent them, and their answers are
// cut back into raw result slots by a structural scan in the style of
// batch.CompactRuns (cutAnswer), which decodes only the stats member.
// The request cuts decode with encoding/json into json.RawMessage fields
// and decode no instance. The batch cut reads a document as
// jobspec.DecodeFile reads it — key case folding, escapes, repeated
// keys, null jobs, trailing bytes. The instance cut is lenient: it takes
// any JSON object with an instance, since the replica it forwards the
// body to answers it. A document a cut refuses is answered with the
// error of jobspec.DecodeSolve or jobspec.DecodeBatch, the decoders the
// replicas answer with.

package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/batch"
	"repro/internal/jobspec"
)

// FNV-1a, 64 bit: the hash/fnv New64a function, unrolled here so that
// hashing needs no hash.Hash value and can skip whitespace in the same
// pass.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds s into the FNV-1a state h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnv1aCompact folds the JSON value raw into h as json.Compact would
// print it (batch.CompactRuns). raw must be valid JSON; every cut that
// hands one out has decoded it.
func fnv1aCompact(h uint64, raw []byte) uint64 {
	batch.CompactRuns(raw, func(run []byte) { h = fnv1a(h, run) })
	return h
}

// instanceKey is the route key of every job on an instance: FNV-1a over
// the instance's compact bytes and a zero byte, which compact JSON never
// contains, as a fixed-width hex string. Equal compact bytes route alike
// whether they come in a /v1/solve body, as a batch's file-level
// instance or as a job's own.
func instanceKey(instance []byte) string {
	return hexKey(fnv1a(fnv1aCompact(fnvOffset, instance), "\x00"))
}

// hexKey renders a hash as 16 lower-case hex digits.
func hexKey(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// jobParts is a batch job's instance and requests as sent. A Job decodes
// every "request" member of a job in turn into the same Request, so a job
// naming it more than once — or a slot that a repeated "jobs" key fills
// twice — keeps all of them, in order.
type jobParts struct {
	Instance json.RawMessage `json:"instance"`
	Requests requests        `json:"request"`
}

type requests []json.RawMessage

// UnmarshalJSON keeps a request that jobspec.DecodeFile accepts. Checking
// each one here, where the decoder meets it, also catches an invalid
// request in a "jobs" array that a later one replaces: DecodeFile rejects
// that document, though no replica would see the request.
func (r *requests) UnmarshalJSON(data []byte) error {
	var req jobspec.Request
	if err := jobspec.DecodeStrict(bytes.NewReader(data), &req); err != nil {
		return err
	}
	*r = append(*r, append(json.RawMessage(nil), data...))
	return nil
}

// instanceCut returns the route key of a request body that carries its
// instance in a top-level "instance" member: /v1/solve, /v1/resolve,
// /v1/pareto and /v1/simulate. ok is false for a body that is not a JSON
// object with an instance.
func instanceCut(body []byte) (key string, ok bool) {
	var doc struct {
		Instance json.RawMessage `json:"instance"`
	}
	if json.Unmarshal(body, &doc) != nil || doc.Instance == nil {
		return "", false
	}
	return instanceKey(doc.Instance), true
}

// solveKey returns the route key of a /v1/solve body the handler read
// (readErr is the error the read ended with). A body the instance cut
// refuses — not JSON, not an object, no instance, a failed read — has no
// route key and gets jobspec.DecodeSolve's error and status, which
// refuses every such body.
func solveKey(body []byte, readErr error) (key string, status int, err error) {
	if key, ok := instanceCut(body); ok {
		return key, 0, nil
	}
	if _, status, err := jobspec.DecodeSolve(jobspec.Replay(body, readErr), nil); err != nil {
		return "", status, err
	}
	return "", http.StatusBadRequest, errors.New("gateway: solve request has no route key") // not reached: DecodeSolve refuses every body the cut refuses (FuzzGatewaySplit)
}

// batchDoc is a /v1/batch document cut into its file-level instance (nil
// when absent) and its jobs.
type batchDoc struct {
	Instance json.RawMessage `json:"instance"`
	Jobs     []jobParts      `json:"jobs"`
}

// splitBatch cuts a /v1/batch document the handler read (readErr is the
// error the read ended with) as jobspec.DecodeFile reads it. A document
// the cut refuses gets jobspec.DecodeBatch's error and status.
func splitBatch(body []byte, readErr error) (doc batchDoc, status int, err error) {
	cutErr := jobspec.DecodeStrict(jobspec.Replay(body, readErr), &doc)
	if cutErr == nil && len(doc.Jobs) > 0 {
		return doc, 0, nil
	}
	if _, status, err := jobspec.DecodeBatch(jobspec.Replay(body, readErr), nil); err != nil {
		return batchDoc{}, status, err
	}
	return batchDoc{}, http.StatusBadRequest, fmt.Errorf("jobspec: cutting job file: %w", cutErr) // not reached: the cut reads every document DecodeFile reads
}

// splice builds the sub-batch of the given jobs from the parts as sent:
// the file-level instance, and each job's instance and requests.
func (d *batchDoc) splice(jobs []int) []byte {
	n := len(`{"instance":,"jobs":[]}`) + len(d.Instance)
	for _, idx := range jobs {
		job := &d.Jobs[idx]
		n += len(`{"instance":},`) + len(job.Instance)
		for _, req := range job.Requests {
			n += len(`,"request":`) + len(req)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, '{')
	if d.Instance != nil {
		b = append(b, `"instance":`...)
		b = append(b, d.Instance...)
		b = append(b, ',')
	}
	b = append(b, `"jobs":[`...)
	for i, idx := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		job := &d.Jobs[idx]
		b = append(b, '{')
		if job.Instance != nil {
			b = append(b, `"instance":`...)
			b = append(b, job.Instance...)
		}
		for k, req := range job.Requests {
			if k > 0 || job.Instance != nil {
				b = append(b, ',')
			}
			b = append(b, `"request":`...)
			b = append(b, req...)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// routeKeys returns every job's route key. The file-level instance is
// hashed once, and its key is shared by every job without its own.
func (d *batchDoc) routeKeys() []string {
	keys := make([]string, len(d.Jobs))
	var shared string
	for i := range d.Jobs {
		if inst := d.Jobs[i].Instance; inst != nil {
			keys[i] = instanceKey(inst)
			continue
		}
		if shared == "" {
			shared = instanceKey(d.Instance)
		}
		keys[i] = shared
	}
	return keys
}

// cutAnswer cuts a replica's 200 answer to a sub-batch, laid out as
// jobspec.AppendOutput writes it, into its raw result slots and its
// stats. It reads the slots' structure only, as batch.CompactRuns reads
// a document: strings, and the nesting of objects and arrays, so each
// slot is passed on as the replica wrote it. Only the small stats member
// is decoded.
func cutAnswer(body []byte) (slots []json.RawMessage, stats jobspec.Stats, err error) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"results":[`))
	for ok && len(rest) > 0 && rest[0] != ']' {
		if len(slots) > 0 {
			if rest, ok = bytes.CutPrefix(rest, []byte(",")); !ok {
				break
			}
		}
		n := objectLen(rest)
		if n == 0 {
			ok = false
			break
		}
		slots, rest = append(slots, rest[:n]), rest[n:]
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`],"stats":`))
	}
	if ok {
		rest, ok = bytes.CutSuffix(rest, []byte("}\n"))
	}
	if !ok {
		return nil, jobspec.Stats{}, errors.New("sub-batch answer is not laid out as a replica writes it")
	}
	if err := json.Unmarshal(rest, &stats); err != nil {
		return nil, jobspec.Stats{}, fmt.Errorf("sub-batch stats: %w", err)
	}
	return slots, stats, nil
}

// objectLen returns the length of the JSON object b starts with, or 0
// when b does not start with one or ends inside it.
func objectLen(b []byte) int {
	if len(b) == 0 || b[0] != '{' {
		return 0
	}
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++ // skip the escaped byte
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}
