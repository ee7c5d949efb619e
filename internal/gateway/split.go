// Routing on bytes. A /v1/solve body and each job of a /v1/batch
// document are cut into their raw instance and request bytes, the route
// key is a hash of those bytes, and sub-batches are spliced from the
// parts as the client sent them. The cuts decode with encoding/json
// into json.RawMessage fields, so they read a document as the checks the
// gateway has always run read it — key case folding, escapes, repeated
// keys, null jobs, trailing bytes — without decoding an instance. Those
// checks answer every document the cuts refuse.

package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

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
// print it: whitespace outside strings is skipped. raw must be valid
// JSON; every cut that hands one out has decoded it.
func fnv1aCompact(h uint64, raw []byte) uint64 {
	inString, escaped := false, false
	for _, c := range raw {
		switch {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ', c == '\t', c == '\n', c == '\r':
			continue
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// instanceHash is the route hash state after a job's instance: FNV-1a
// over the instance's compact bytes and a zero byte, which compact JSON
// never contains. Jobs sharing a file-level instance share this state.
func instanceHash(instance []byte) uint64 {
	return fnv1a(fnv1aCompact(fnvOffset, instance), "\x00")
}

// jobKey is a job's route key: the hash of its instance and request
// bytes, compacted, as a fixed-width hex string. Equal compact bytes
// route alike whether they come as a /v1/solve body or as a job of a
// /v1/batch document.
func jobKey(instHash uint64, request []byte) string {
	return hexKey(fnv1aCompact(instHash, request))
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	*r = append(*r, append(json.RawMessage(nil), data...))
	return nil
}

// request returns the last request, which a route key hashes (nil: none).
func (j *jobParts) request() []byte {
	if len(j.Requests) == 0 {
		return nil
	}
	return j.Requests[len(j.Requests)-1]
}

// solveKey returns the route key of a /v1/solve body, read as checkSolve
// reads it, or, for a body without an instance or that is not JSON,
// checkSolve's error.
func solveKey(body []byte) (string, error) {
	var job struct {
		Instance json.RawMessage `json:"instance"`
		Request  json.RawMessage `json:"request"`
	}
	cutErr := json.Unmarshal(body, &job)
	if cutErr == nil && job.Instance != nil {
		return jobKey(instanceHash(job.Instance), job.Request), nil
	}
	if err := checkSolve(body); err != nil {
		return "", err
	}
	return "", fmt.Errorf("cutting request body: %w", cutErr) // not reached: the cut reads every body checkSolve reads
}

// batchDoc is a /v1/batch document cut into its file-level instance (nil
// when absent) and its jobs.
type batchDoc struct {
	Instance json.RawMessage `json:"instance"`
	Jobs     []jobParts      `json:"jobs"`
}

// splitBatch cuts a /v1/batch document the handler read (readErr is the
// error the read ended with) with the decoder jobspec.DecodeFile uses. A
// document the cut refuses gets the checks the gateway has always run,
// which answer its error.
func splitBatch(body []byte, readErr error) (doc batchDoc, status int, err error) {
	dec := json.NewDecoder(replay(body, readErr))
	dec.DisallowUnknownFields()
	cutErr := dec.Decode(&doc)
	if cutErr == nil && len(doc.Jobs) > 0 {
		return doc, 0, nil
	}
	if status, err := checkBatch(body, readErr); err != nil {
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
// hashed once.
func (d *batchDoc) routeKeys() []string {
	keys := make([]string, len(d.Jobs))
	shared := instanceHash(d.Instance)
	for i := range d.Jobs {
		job := &d.Jobs[i]
		h := shared
		if job.Instance != nil {
			h = instanceHash(job.Instance)
		}
		keys[i] = jobKey(h, job.request())
	}
	return keys
}

// replay returns a reader that yields body and then the error the read
// of body ended with (nil: io.EOF), so a decoder sees exactly the stream
// the handler read.
func replay(body []byte, readErr error) io.Reader {
	if readErr == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{readErr})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// checkBatch runs the checks the gateway has always run on a /v1/batch
// document — jobspec.DecodeFile, then BatchJobs — and returns the error
// to answer with its status, or nil.
func checkBatch(body []byte, readErr error) (status int, err error) {
	f, err := jobspec.DecodeFile(replay(body, readErr))
	if err != nil {
		return jobspec.DecodeStatus(err), err
	}
	if _, err := f.BatchJobs(); err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

// checkSolve runs the checks the gateway has always run on a /v1/solve
// body and returns the error to answer with status 400, or nil.
func checkSolve(body []byte) error {
	var job jobspec.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if job.Instance == nil {
		return errors.New("solve request has no instance")
	}
	file := jobspec.File{Instance: job.Instance, Jobs: []jobspec.Job{{Request: job.Request}}}
	_, err := file.BatchJobs()
	return err
}
