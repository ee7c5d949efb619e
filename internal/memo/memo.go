// Package memo is the repository's one memoization primitive: a
// single-flight, optionally bounded LRU map from canonical byte keys to
// computed values. The batch engine's plan tier, every compiled plan's
// query memo and the /v1/solve front tier the server and the gateway
// share (internal/batch, internal/plan, internal/jobspec) are built on it.
//
// Single flight: the first caller to ask for a key installs an in-flight
// entry and computes the value; every concurrent or later caller for the
// same key receives that entry and waits for its publication instead of
// recomputing. Publication happens exactly once, even when the computation
// panics — the panic is re-published as the entry's error — so a poisoned
// key never wedges its waiters.
//
// Bounding: a Memo built with a positive cap never holds more than cap
// entries, even transiently; inserting beyond it evicts the least recently
// used entry. In-flight entries may be evicted too: their waiters already
// hold the entry and still receive its value; only late arrivals lose the
// dedup for that key.
//
// Aliasing: Wait hands out the stored value itself. When V carries slices,
// maps or pointers, callers must copy it before letting it escape (the
// pipelint memoalias analyzer enforces this at every call site), or justify
// the sharing of an immutable value.
package memo

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Memo is a single-flight LRU memo. The zero value is not usable; call New.
// It is safe for concurrent use.
type Memo[V any] struct {
	mu  sync.Mutex
	cap int // 0 = unbounded
	m   map[string]*Entry[V]
	// lru is the sentinel of a circular list threaded through the
	// entries: lru.next is the most recently used, lru.prev the least.
	lru Entry[V]

	hits, misses, evictions int64
}

// Entry is one memoized key: a single-flight slot that is published once
// val and err are final, so waiters never observe a partial write. An
// entry carries its own LRU links, and its ready channel is made only for
// a caller that waits before publication and dropped once published: a
// memo holds many published entries, and each costs what it stores.
type Entry[V any] struct {
	key        string
	prev, next *Entry[V] // LRU links, guarded by the memo's mutex

	// ready is nil until a caller waits on the entry in flight, and the
	// shared closed channel once the entry is published.
	mu    sync.Mutex
	ready chan struct{}
	val   V
	err   error
}

// closed is the ready channel of every published entry.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// New returns an empty memo holding at most maxEntries keys; a
// non-positive maxEntries means unbounded.
func New[V any](maxEntries int) *Memo[V] {
	m := &Memo[V]{cap: max(maxEntries, 0), m: make(map[string]*Entry[V])}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// unlink removes e from the LRU list.
func (m *Memo[V]) unlink(e *Entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (m *Memo[V]) pushFront(e *Entry[V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.next.prev = e
	m.lru.next = e
}

// Get returns the entry for key, installing an empty in-flight one on first
// arrival. hit reports whether the entry already existed (possibly still in
// flight); on a miss the caller owns the entry and must publish it with
// Fill exactly once. The key bytes are copied on insertion, so callers may
// reuse the buffer; a hit does not allocate.
func (m *Memo[V]) Get(key []byte) (e *Entry[V], hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.m[string(key)]; ok {
		m.unlink(e)
		m.pushFront(e)
		m.hits++
		return e, true
	}
	e = &Entry[V]{key: string(key)}
	m.m[e.key] = e
	m.pushFront(e)
	m.misses++
	for m.cap > 0 && len(m.m) > m.cap {
		back := m.lru.prev
		m.unlink(back)
		delete(m.m, back.key)
		m.evictions++
	}
	return e, false
}

// Published returns the entry for key when one is installed and already
// published, without installing one. A found entry counts as a hit and
// becomes the most recently used, like a Get hit; otherwise nothing is
// counted. It is for callers that cannot afford to wait or compute.
func (m *Memo[V]) Published(key []byte) (e *Entry[V], ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok = m.m[string(key)]
	if !ok || !e.published() {
		return nil, false
	}
	m.unlink(e)
	m.pushFront(e)
	m.hits++
	return e, true
}

// Forget drops e from the memo if it is still the entry installed for its
// key, so the next Get of that key misses and computes afresh. Waiters that
// already hold e still receive its value. A stale Forget — e was evicted,
// and its key perhaps installed again — is a no-op. Forget is for values a
// caller decides, once published, not to keep (an answer that depended on
// its own request's deadline); it is not counted as an eviction.
func (m *Memo[V]) Forget(e *Entry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.m[e.key]; ok && cur == e {
		m.unlink(e)
		delete(m.m, e.key)
	}
}

// Fill runs compute and publishes its result to every waiter on e. A panic
// inside compute is recovered and published as e's error, with the stack
// attached. Only the caller that installed e (a Get miss) may call Fill.
func (e *Entry[V]) Fill(compute func() (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			e.val, e.err = zero, fmt.Errorf("memo: computation panicked: %v\n%s", r, debug.Stack())
		}
		e.mu.Lock()
		if e.ready != nil {
			close(e.ready)
		}
		e.ready = closed
		e.mu.Unlock()
	}()
	e.val, e.err = compute()
}

// published reports whether e is published.
func (e *Entry[V]) published() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ready == closed
}

// Ready is closed once e is published.
func (e *Entry[V]) Ready() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ready == nil {
		e.ready = make(chan struct{})
	}
	return e.ready
}

// Wait blocks until e is published and returns its value and error. The
// value is the stored one, shared with every other caller (see the package
// documentation on aliasing).
func (e *Entry[V]) Wait() (V, error) {
	<-e.Ready()
	return e.val, e.err
}

// Len returns the number of memoized keys, including in-flight ones.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Stats is a point-in-time snapshot of a memo's counters.
type Stats struct {
	// Entries is the current number of memoized keys (including
	// in-flight ones); Cap the configured bound, 0 = unbounded.
	Entries, Cap int
	// Hits counts lookups answered by an existing (possibly in-flight)
	// entry; Misses those that installed a new one and computed it.
	Hits, Misses int64
	// Evictions counts entries dropped to keep the memo under its cap.
	Evictions int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats returns a snapshot of the memo's counters.
func (m *Memo[V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Entries: len(m.m), Cap: m.cap, Hits: m.hits, Misses: m.misses, Evictions: m.evictions}
}
