// The HTTP serving skeleton shared by pipeserved (internal/server) and
// pipegateway (internal/gateway): the response writers, the error
// document, the body-cap rule, the decoders of /v1/solve and /v1/batch
// documents, the per-route request counters, the probe writer and the
// listen-and-drain loop. The /v1/solve front tier both run is in
// front.go. Both front ends answer with exactly these
// documents, so a client (or the gateway relaying a replica's answer)
// sees one wire format whichever process it talks to.

package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
)

// Serve runs srv until ctx is done (the caller's signal context), then
// shuts it down gracefully: it calls onDrain, if not nil, as draining
// starts, closes the listener and gives in-flight requests the drain
// budget to finish. A listener that fails before ctx is done returns its
// error.
func Serve(ctx context.Context, srv *http.Server, drain time.Duration, logger *log.Logger, onDrain func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Printf("shutting down, draining in-flight requests (budget %v)", drain)
	if onDrain != nil {
		onDrain()
	}
	// ctx is done by now: the drain budget keeps its values, not its end.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("bye")
	return nil
}

// DefaultMaxBody is the request body cap, in bytes, of a handler whose
// configured cap is 0.
const DefaultMaxBody int64 = 8 << 20

// LimitBody applies the body-cap rule every handler shares: limit 0
// means DefaultMaxBody, a negative limit disables the cap. Reading past
// the cap fails with an *http.MaxBytesError, which DecodeStatus maps to
// 413.
func LimitBody(w http.ResponseWriter, r *http.Request, limit int64) {
	if limit == 0 {
		limit = DefaultMaxBody
	}
	if limit > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
}

// WriteJSON emits a response document, compactly encoded.
func WriteJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc) // past WriteHeader, an encode error has no channel left
}

// MarshalJSON returns the body WriteJSON writes for doc: its compact
// encoding (json.Marshal and json.Encoder share it) and a newline.
func MarshalJSON(doc any) ([]byte, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// WriteRaw answers a document already encoded by MarshalJSON, with the
// headers WriteJSON sets.
func WriteRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// Replay returns a reader that yields body and then the error the read of
// body ended with (nil: io.EOF), so a decoder run on a body read whole
// sees exactly the stream a decoder reading the request would have seen.
func Replay(body []byte, readErr error) io.Reader {
	if readErr == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{readErr})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// DecodeBody decodes a request body into dst with DecodeStrict; its
// errors are BodyError's.
func DecodeBody(r io.Reader, dst any) error {
	if err := DecodeStrict(r, dst); err != nil {
		return BodyError(err)
	}
	return nil
}

// BodyError is how every handler reports a request body it could not
// read or decode: "decoding request body: " and the failure.
func BodyError(err error) error { return fmt.Errorf("decoding request body: %w", err) }

// DecodeSolve reads a /v1/solve body, one Job whose instance is
// required, and resolves it through c (File.Resolve; a nil c decodes the
// instance). It returns the one engine job, or the error to answer with
// its HTTP status. pipeserved answers every /v1/solve body with it, and
// pipegateway every body it cannot route.
func DecodeSolve(r io.Reader, c *batch.Cache) ([]batch.Job, int, error) {
	var job Job
	if err := DecodeBody(r, &job); err != nil {
		return nil, DecodeStatus(err), err
	}
	if job.Instance == nil {
		return nil, http.StatusBadRequest, errors.New("solve request has no instance")
	}
	f := File{Instance: job.Instance, Jobs: []Job{{Request: job.Request}}}
	return resolveStatus(f.Resolve(c))
}

// DecodeBatch reads a /v1/batch job file (DecodeFile) and resolves it
// through c (File.Resolve; a nil c decodes every instance). It returns
// the engine jobs, or the error to answer with its HTTP status.
// pipeserved answers every /v1/batch document with it, and pipegateway
// every document it cannot cut or did not have answered whole.
func DecodeBatch(r io.Reader, c *batch.Cache) ([]batch.Job, int, error) {
	f, err := DecodeFile(r)
	if err != nil {
		return nil, DecodeStatus(err), err
	}
	return resolveStatus(f.Resolve(c))
}

// resolveStatus gives a resolve error its status, 400.
func resolveStatus(jobs []batch.Job, err error) ([]batch.Job, int, error) {
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return jobs, 0, nil
}

// errorDoc is the body of every error response.
type errorDoc struct {
	Error string `json:"error"`
	// Code is the stable machine-readable classification (Code* consts);
	// the error text stays free-form.
	Code string `json:"code,omitempty"`
}

// WriteError answers a structured error document, classifying err
// through ErrorCode. A 4xx the classifier cannot name (malformed body,
// missing field, oversized request) is the client's fault, so it reports
// "invalid" rather than "internal".
func WriteError(w http.ResponseWriter, status int, err error) {
	code := ErrorCode(err)
	if code == CodeInternal && status >= 400 && status < 500 {
		code = CodeInvalid
	}
	WriteJSON(w, status, errorDoc{Error: err.Error(), Code: code})
}

// WriteShed answers a load-shedding rejection (admission gate full,
// circuit open, no healthy replica): code "shed" plus a Retry-After
// header so well-behaved clients back off instead of hammering. The wait
// is rendered in whole seconds, rounded up and never below 1 — a zero
// would invite an immediate retry of a request just shed for overload.
func WriteShed(w http.ResponseWriter, status int, wait time.Duration, err error) {
	secs := max(int64((wait+time.Second-1)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	WriteJSON(w, status, errorDoc{Error: err.Error(), Code: CodeShed})
}

// DecodeStatus maps a body-reading or decoding failure to an HTTP
// status: an oversized body (see LimitBody) is 413, anything else is a
// plain bad request.
func DecodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteProbe answers a liveness or readiness probe: 200 when ready, 503
// otherwise, naming the state in a {"status": ...} document.
func WriteProbe(w http.ResponseWriter, ready bool, status string) {
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]string{"status": status})
}

// Healthz is the liveness probe: 200 for as long as the process can
// serve HTTP at all, even while draining — restarting a draining process
// would kill the in-flight requests the drain exists to protect.
func Healthz(w http.ResponseWriter, _ *http.Request) { WriteProbe(w, true, "ok") }

// Counters is a set of named counters, safe for concurrent use. The zero
// value is ready.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// Add adds n to the counter named key.
func (c *Counters) Add(key string, n int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[key] += n
	c.mu.Unlock()
}

// Snapshot returns a copy of every counter; it is never nil.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// RouteKey names the route r matches on mux by its path ("/v1/solve"),
// or "unmatched". Per-route counters keyed by it stay bounded for the
// life of the process no matter what paths clients (or scanners) probe.
func RouteKey(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:] // strip the "METHOD " prefix
	}
	return pattern
}
