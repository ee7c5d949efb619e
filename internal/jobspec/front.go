// The /v1/solve front tier pipeserved (internal/server) and pipegateway
// (internal/gateway) share: one single-flight memo of finished answers,
// keyed by the digest of the exact request body.

package jobspec

import (
	"bytes"
	"context"
	"crypto/sha256"

	"repro/internal/core"
	"repro/internal/memo"
)

// FrontMaxBody is the largest /v1/solve body a front tier looks up, and
// the largest answer it keeps. With keys of sha256.Size bytes, a tier of
// n entries holds at most n x (32 B + FrontMaxBody) of keys and answers.
const FrontMaxBody = 16 << 10

// FrontAnswer is a /v1/solve answer as a front tier keeps it: the body
// written with status 200, and the solver method that answered it (empty
// where the tier does not know it). A nil Body marks an answer the tier
// does not keep.
type FrontAnswer struct {
	Body   []byte
	Method core.Method
}

// Front is a /v1/solve front tier. The mapping questions have
// deterministic answers, so a repeated body is answered by writing the
// stored bytes of its first answer. Concurrent identical bodies wait for
// the first one's answer (single flight, internal/memo); when that answer
// is not kept, or a waiter's own context ends first, the waiter runs the
// full path itself, so no request ever receives another request's
// timeout. Create with NewFront; it is safe for concurrent use.
type Front struct {
	m *memo.Memo[FrontAnswer]
}

// NewFront returns an empty tier holding at most maxEntries answers; a
// non-positive maxEntries means unbounded.
func NewFront(maxEntries int) *Front {
	return &Front{m: memo.New[FrontAnswer](maxEntries)}
}

// Stats returns a snapshot of the tier's counters; Entries counts the
// answers kept or in flight.
func (f *Front) Stats() memo.Stats { return f.m.Stats() }

// Serve answers one /v1/solve request whose body was read whole or up to
// the error readErr. A body read whole of at most FrontMaxBody bytes is
// looked up: a kept answer is handed to hit, which writes it; a body the
// tier has not seen runs full as the leader for its digest. Every other
// request runs full directly. full answers the request on the body and
// the read's error, as the caller holds them, and returns the answer the
// tier may keep, or a FrontAnswer with a nil Body for one it must not; an
// answer larger than FrontMaxBody is not kept, and a panic in full keeps
// nothing and wakes the waiters.
func (f *Front) Serve(ctx context.Context, body []byte, readErr error,
	hit func(FrontAnswer), full func() FrontAnswer) {
	if readErr != nil || len(body) > FrontMaxBody {
		full()
		return
	}
	key := sha256.Sum256(body)
	e, found := f.m.Get(key[:])
	if !found {
		f.lead(e, full)
		return
	}
	select {
	case <-e.Ready():
		//lint:allow memoalias the stored answer body is only ever written out, never modified
		if a, _ := e.Wait(); a.Body != nil && ctx.Err() == nil {
			hit(a)
			return
		}
	case <-ctx.Done():
	}
	// The leader's answer is not kept, or this request's own deadline
	// came first: answer as the full path would.
	full()
}

// lead runs full for a body the tier has not seen, publishes the answer
// to the requests waiting on e, and keeps it unless its Body is nil or
// too large. An answer not kept is forgotten, so the next request for the
// body misses and runs the full path.
func (f *Front) lead(e *memo.Entry[FrontAnswer], full func() FrontAnswer) {
	var a FrontAnswer
	defer func() {
		if len(a.Body) > FrontMaxBody {
			a = FrontAnswer{}
		} else {
			// Keep the answer's bytes only, not the spare capacity of
			// the buffer it was appended or read into.
			a.Body = bytes.Clone(a.Body)
		}
		e.Fill(func() (FrontAnswer, error) { return a, nil })
		if a.Body == nil {
			f.m.Forget(e)
		}
	}()
	a = full()
}
