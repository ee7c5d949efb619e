package memo

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func key(n int) []byte { return []byte(fmt.Sprintf("key-%d", n)) }

// Do is the lookup a memo user writes: Get, Fill on a miss, Wait.
func (m *Memo[V]) Do(key []byte, compute func() (V, error)) (V, error, bool) {
	e, hit := m.Get(key)
	if !hit {
		e.Fill(compute)
	}
	v, err := e.Wait()
	return v, err, hit
}

func value(n int) func() (int, error) { return func() (int, error) { return n, nil } }

// TestSingleFlight checks concurrent callers of one key run the computation
// once and all receive its value.
func TestSingleFlight(t *testing.T) {
	m := New[int](0)
	release := make(chan struct{})
	var runs atomic.Int32
	const callers = 16
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err, hit := m.Do(key(1), func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("caller %d: %d, %v", g, v, err)
			}
			hits[g] = hit
		}(g)
	}
	for s := m.Stats(); s.Hits+s.Misses < callers; s = m.Stats() {
		runtime.Gosched() // until every caller has looked the key up
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want 1", misses)
	}
	if s := m.Stats(); s.Hits != callers-1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLRUOrder checks touching an entry protects it from eviction ahead of
// colder entries.
func TestLRUOrder(t *testing.T) {
	m := New[int](2)
	m.Do(key(1), value(1))
	m.Do(key(2), value(2))
	m.Do(key(1), value(1)) // touch 1: now 2 is the LRU entry
	m.Do(key(3), value(3)) // evicts 2
	if _, _, hit := m.Do(key(1), value(1)); !hit {
		t.Error("recently used key 1 was evicted")
	}
	if _, _, hit := m.Do(key(2), value(2)); hit {
		t.Error("least recently used key 2 survived past the cap")
	}
}

// TestCapNeverExceeded inserts far more keys than the cap: the bound holds
// after every insertion and every displaced key counts as an eviction.
func TestCapNeverExceeded(t *testing.T) {
	for _, capacity := range []int{1, 3, 50} {
		m := New[int](capacity)
		for n := 0; n < 10*capacity; n++ {
			m.Do(key(n), value(n))
			if got := m.Len(); got > capacity {
				t.Fatalf("cap %d: Len = %d after %d inserts", capacity, got, n+1)
			}
		}
		s := m.Stats()
		if s.Entries != capacity || s.Cap != capacity {
			t.Errorf("cap %d: stats %+v", capacity, s)
		}
		if s.Evictions != int64(9*capacity) || s.Misses != int64(10*capacity) {
			t.Errorf("cap %d: evictions %d misses %d", capacity, s.Evictions, s.Misses)
		}
		// The newest key survives, whatever the cap.
		if _, _, hit := m.Do(key(10*capacity-1), value(0)); !hit {
			t.Errorf("cap %d: newest key evicted", capacity)
		}
	}
}

// TestUnbounded pins the non-positive cap: nothing is ever evicted.
func TestUnbounded(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		m := New[int](capacity)
		for n := 0; n < 500; n++ {
			m.Do(key(n), value(n))
		}
		if s := m.Stats(); s.Entries != 500 || s.Evictions != 0 || s.Cap != 0 {
			t.Errorf("New(%d): stats %+v", capacity, s)
		}
	}
}

// TestErrorsAreMemoized checks a failed computation is published like a
// value: later callers get the same error without recomputing.
func TestErrorsAreMemoized(t *testing.T) {
	m := New[int](0)
	boom := errors.New("boom")
	m.Do(key(1), func() (int, error) { return 0, boom })
	_, err, hit := m.Do(key(1), func() (int, error) {
		t.Error("recomputed a memoized error")
		return 0, nil
	})
	if !hit || !errors.Is(err, boom) {
		t.Errorf("second lookup: err=%v hit=%v", err, hit)
	}
}

// TestPanicPublishedToWaiters checks a panic inside the computation closes
// the entry, so every waiter unblocks with the panic as its error.
func TestPanicPublishedToWaiters(t *testing.T) {
	m := New[int](0)
	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err, _ := m.Do(key(7), func() (int, error) {
			close(started)
			<-release
			panic("poisoned request")
		})
		first <- err
	}()
	<-started
	const waiters = 8
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, hit := m.Do(key(7), func() (int, error) {
				t.Error("waiter ran the computation despite the in-flight entry")
				return 0, nil
			})
			if !hit || v != 0 {
				t.Errorf("waiter: hit=%v value=%d", hit, v)
			}
			errs <- err
		}()
	}
	close(release)
	wg.Wait()
	close(errs)
	if err := <-first; err == nil || !strings.Contains(err.Error(), "poisoned request") {
		t.Errorf("computing caller error = %v, want the re-published panic", err)
	}
	for err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("waiter error = %v, want the re-published panic", err)
		}
	}
}

// TestEvictedInFlightEntryStillPublishes checks the cap may drop an
// in-flight entry without stranding the callers that already hold it.
func TestEvictedInFlightEntryStillPublishes(t *testing.T) {
	m := New[int](1)
	e, hit := m.Get(key(1))
	if hit {
		t.Fatal("fresh key reported a hit")
	}
	waiter, hit := m.Get(key(1))
	if !hit || waiter != e {
		t.Fatal("second Get did not join the in-flight entry")
	}
	m.Do(key(2), value(2)) // evicts the in-flight key 1
	done := make(chan int)
	go func() {
		v, _ := waiter.Wait()
		done <- v
	}()
	e.Fill(value(9))
	if v := <-done; v != 9 {
		t.Errorf("waiter on the evicted entry got %d, want 9", v)
	}
	if _, _, hit := m.Do(key(1), value(1)); hit {
		t.Error("evicted key still answered")
	}
}

// TestForget checks a dropped entry still publishes to the callers that
// hold it, while the next Get of its key misses and computes afresh.
func TestForget(t *testing.T) {
	m := New[int](0)
	e, _ := m.Get(key(1))
	waiter, hit := m.Get(key(1))
	if !hit || waiter != e {
		t.Fatal("second Get did not join the in-flight entry")
	}
	done := make(chan int)
	go func() {
		v, _ := waiter.Wait()
		done <- v
	}()
	e.Fill(value(7))
	m.Forget(e)
	if v := <-done; v != 7 {
		t.Errorf("waiter on the dropped entry got %d, want 7", v)
	}
	if v, _ := e.Wait(); v != 7 {
		t.Errorf("the dropped entry holds %d, want 7", v)
	}
	if v, _, hit := m.Do(key(1), value(8)); hit || v != 8 {
		t.Errorf("Get after Forget = (%d, hit %v), want a miss computing 8", v, hit)
	}
	if s := m.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Errorf("entries/evictions = %d/%d, want 1/0", s.Entries, s.Evictions)
	}
}

// TestPublished checks Published finds only published entries, installs
// nothing, and counts a hit only when it finds one.
func TestPublished(t *testing.T) {
	m := New[int](0)
	if _, ok := m.Published(key(1)); ok {
		t.Fatal("Published found an absent key")
	}
	e, _ := m.Get(key(1))
	if _, ok := m.Published(key(1)); ok {
		t.Fatal("Published found an in-flight entry")
	}
	e.Fill(value(5))
	got, ok := m.Published(key(1))
	if !ok || got != e {
		t.Fatal("Published missed the published entry")
	}
	if v, _ := got.Wait(); v != 5 {
		t.Errorf("published value %d, want 5", v)
	}
	if s := m.Stats(); s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("entries/hits/misses = %d/%d/%d, want 1/1/1", s.Entries, s.Hits, s.Misses)
	}
}

// TestForgetStaleIsNoOp checks a Forget of an entry the cap already
// evicted leaves alone the entry installed for its key since.
func TestForgetStaleIsNoOp(t *testing.T) {
	m := New[int](1)
	stale, _ := m.Get(key(1))
	stale.Fill(value(1))
	m.Do(key(2), value(2)) // evicts key 1
	m.Do(key(1), value(3)) // installs key 1 again, evicting key 2
	m.Forget(stale)
	if v, _, hit := m.Do(key(1), value(4)); !hit || v != 3 {
		t.Errorf("key 1 after a stale Forget = (%d, hit %v), want the re-inserted 3", v, hit)
	}
	m.Forget(stale) // twice is still a no-op
	if n := m.Len(); n != 1 {
		t.Errorf("len = %d, want 1", n)
	}
}

// TestConcurrentMixedWorkload hammers a small memo from many goroutines
// with overlapping key ranges (run with -race): the cap holds at every
// probe and every key keeps answering its own value.
func TestConcurrentMixedWorkload(t *testing.T) {
	const capacity = 64
	m := New[int](capacity)
	stop := make(chan struct{})
	var probe sync.WaitGroup
	probe.Add(1)
	go func() {
		defer probe.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if got := m.Len(); got > capacity {
					t.Errorf("Len = %d exceeds cap %d under load", got, capacity)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 400; n++ {
				k := rng.Intn(3 * capacity)
				if v, err, _ := m.Do(key(k), value(k)); err != nil || v != k {
					t.Errorf("key %d: %d, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	probe.Wait()
	if s := m.Stats(); s.Evictions == 0 || s.Hits == 0 {
		t.Errorf("stats %+v: want both hits and evictions at 3x the cap", s)
	}
}

// TestGetDoesNotAllocateOnHit pins the hot path: a repeat lookup with a
// reused key buffer allocates nothing.
func TestGetDoesNotAllocateOnHit(t *testing.T) {
	m := New[int](0)
	k := key(1)
	m.Do(k, value(1))
	if allocs := testing.AllocsPerRun(100, func() { m.Get(k) }); allocs != 0 {
		t.Errorf("hit allocates %.0f times, want 0", allocs)
	}
}
