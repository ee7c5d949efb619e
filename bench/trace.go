package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// Span names, outermost first. A traced request makes one client span, one
// gateway span, one gateway.upstream span per replica it fans out to and
// one server span under each upstream span.
const (
	spanClient   = "client"
	spanGateway  = "gateway"
	spanUpstream = "gateway.upstream"
	spanServer   = "server"
)

// The headers that carry a traced request's id and its parent span id
// from the client to the gateway and from the gateway to a replica.
const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started, on the monotonic clock.
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// ref names s as the parent of the spans it causes.
func (s *span) ref() spanRef { return spanRef{s.Req, s.ID} }

// tracer records spans in memory from wrappers the benchmark puts around
// the cluster's public seams: the gateway and replica handlers, the
// gateway's HTTP client and its router. It never touches program code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64

	mu    sync.Mutex
	spans []span

	// Router calls carry no request context, so routing is counted and
	// timed in aggregate rather than as spans.
	routeCalls, routeNanos atomic.Int64
	// Upstream body bytes, request and response.
	reqBytes, respBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type ctxKey struct{}

// spanRef names the open span a context belongs to.
type spanRef struct{ req, id int64 }

func refFromHeader(h http.Header) (spanRef, bool) {
	req, err1 := strconv.ParseInt(h.Get(hdrRequest), 10, 64)
	parent, err2 := strconv.ParseInt(h.Get(hdrParent), 10, 64)
	return spanRef{req, parent}, err1 == nil && err2 == nil
}

func (r spanRef) stamp(h http.Header) {
	h.Set(hdrRequest, strconv.FormatInt(r.req, 10))
	h.Set(hdrParent, strconv.FormatInt(r.id, 10))
}

// start opens a child span of parent.
func (t *tracer) start(name string, parent spanRef) span {
	return span{Req: parent.req, ID: t.ids.Add(1), Parent: parent.id, Name: name, Start: t.now()}
}

// root opens the client span of a new traced request.
func (t *tracer) root() span {
	return t.start(spanClient, spanRef{req: t.reqs.Add(1)})
}

// handler wraps a gateway or replica handler: a request carrying trace
// headers gets a span named name, and its context names that span so the
// gateway's upstream calls can find their parent.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := refFromHeader(r.Header)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.start(name, parent)
		ctx := context.WithValue(r.Context(), ctxKey{}, s.ref())
		next.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.record(s)
	})
}

// transport wraps the gateway's upstream RoundTripper: a call made under a
// traced gateway request gets a gateway.upstream span, which ends when the
// gateway closes the response body, and the replica learns the span from
// the stamped headers.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(ctxKey{}).(spanRef)
	if !ok {
		return tr.base.RoundTrip(r)
	}
	s := tr.t.start(spanUpstream, parent)
	r = r.Clone(r.Context())
	s.ref().stamp(r.Header)
	if r.ContentLength > 0 {
		tr.t.reqBytes.Add(r.ContentLength)
	}
	resp, err := tr.base.RoundTrip(r)
	if err != nil {
		s.End = tr.t.now()
		tr.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.respBytes.Add(b.n)
		b.t.record(b.s)
	})
	return err
}

// router times every routing decision of the wrapped router.
type router struct {
	t *tracer
	gateway.Router
}

func (r router) Route(key string, healthy func(int) bool) (int, bool) {
	start := time.Now()
	rep, ok := r.Router.Route(key, healthy)
	r.t.routeNanos.Add(int64(time.Since(start)))
	r.t.routeCalls.Add(1)
	return rep, ok
}

// spanTree indexes spans by id and by parent.
type spanTree struct {
	byID     map[int64]*span
	children map[int64][]*span
}

func buildTree(spans []span) spanTree {
	t := spanTree{byID: make(map[int64]*span, len(spans)), children: make(map[int64][]*span)}
	for i := range spans {
		s := &spans[i]
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// selfTime is a span's duration minus the part of it its children cover.
func (t spanTree) selfTime(s *span) int64 {
	kids := append([]*span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, reach := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.dur() - covered
}

// check verifies the tree is well formed: every non-root span has a
// parent, lies within it and shares its request id, and every span's self
// time is non-negative.
func (t spanTree) check() error {
	for _, s := range t.byID {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := t.byID[s.Parent]
			if !ok {
				return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
			}
			if s.Req != p.Req {
				return fmt.Errorf("span %d (%s) has request %d, its parent %d has %d", s.ID, s.Name, s.Req, p.ID, p.Req)
			}
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) [%d,%d] is outside its parent %d (%s) [%d,%d]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
		if t.selfTime(s) < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
