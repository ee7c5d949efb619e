package jobspec

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frontCalls counts a tier's full-path runs and records the answers
// handed to its hit callback.
type frontCalls struct {
	full atomic.Int64
	mu   sync.Mutex
	hits [][]byte
}

func (c *frontCalls) hit(a FrontAnswer) {
	c.mu.Lock()
	c.hits = append(c.hits, a.Body)
	c.mu.Unlock()
}

// answer returns a full path that answers body with its own bytes, or
// with an answer the tier does not keep (no Body) unless keep.
func (c *frontCalls) answer(body []byte, keep bool) func() FrontAnswer {
	return func() FrontAnswer {
		c.full.Add(1)
		if !keep {
			return FrontAnswer{}
		}
		return FrontAnswer{Body: append([]byte("answer to "), body...)}
	}
}

// waitUntil polls cond until it holds or a generous deadline passes.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontKeepsAnswers: a kept answer is handed to hit on every repeat
// without running the full path, as a copy the full path's buffer no
// longer reaches; an answer not kept is run again and never stored.
func TestFrontKeepsAnswers(t *testing.T) {
	f := NewFront(0)
	var c frontCalls
	body := []byte(`{"a":1}`)
	var buf []byte
	f.Serve(context.Background(), body, nil, c.hit, func() FrontAnswer {
		c.full.Add(1)
		buf = append(make([]byte, 0, 64), "kept"...)
		return FrontAnswer{Body: buf}
	})
	buf[0] = 'X' // the caller's buffer is its own again
	for range 3 {
		f.Serve(context.Background(), body, nil, c.hit, c.answer(body, true))
	}
	if c.full.Load() != 1 || len(c.hits) != 3 {
		t.Fatalf("kept body: %d full runs and %d hits, want 1 and 3", c.full.Load(), len(c.hits))
	}
	for _, h := range c.hits {
		if string(h) != "kept" || cap(h) >= 64 {
			t.Errorf("hit answered %q (cap %d), want the 4 bytes kept without the full path's 64-byte buffer", h, cap(h))
		}
	}

	other := []byte(`{"a":2}`)
	for range 2 {
		f.Serve(context.Background(), other, nil, c.hit, c.answer(other, false))
	}
	if c.full.Load() != 3 || f.Stats().Entries != 1 {
		t.Errorf("unkept body: %d full runs in all and %d entries, want 3 and 1", c.full.Load(), f.Stats().Entries)
	}
	if st := f.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Errorf("stats %+v, want 3 hits and 3 misses", st)
	}
}

// TestFrontLimits: a body over FrontMaxBody and a body whose read failed
// run the full path and are never looked up; an answer over FrontMaxBody
// is not kept.
func TestFrontLimits(t *testing.T) {
	f := NewFront(0)
	var c frontCalls
	big := bytes.Repeat([]byte{' '}, FrontMaxBody+1)
	for range 2 {
		f.Serve(context.Background(), big, nil, c.hit, c.answer(big, true))
		f.Serve(context.Background(), []byte("{"), errors.New("read failed"), c.hit, c.answer([]byte("{"), true))
		f.Serve(context.Background(), []byte("{}"), nil, c.hit, func() FrontAnswer {
			c.full.Add(1)
			return FrontAnswer{Body: make([]byte, FrontMaxBody+1)}
		})
	}
	if c.full.Load() != 6 || len(c.hits) != 0 || f.Stats().Entries != 0 {
		t.Errorf("%d full runs, %d hits, %d entries; want 6, 0, 0", c.full.Load(), len(c.hits), f.Stats().Entries)
	}
	if st := f.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats %+v: only the small body's two requests are lookups, both misses", st)
	}
}

// TestFrontFollowersRunTheirOwnPath holds a body's leader in flight while
// concurrent identical requests wait on it, then publishes an answer the
// tier does not keep: each waiter must run the full path itself, and the
// next request must miss.
func TestFrontFollowersRunTheirOwnPath(t *testing.T) {
	f := NewFront(0)
	var c frontCalls
	body := []byte(`{"slow":true}`)
	release := make(chan struct{})
	led := make(chan struct{})
	go func() {
		defer close(led)
		f.Serve(context.Background(), body, nil, c.hit, func() FrontAnswer {
			<-release
			return FrontAnswer{}
		})
	}()
	waitUntil(t, func() bool { return f.Stats().Misses == 1 })
	const followers = 4
	var wg sync.WaitGroup
	for range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Serve(context.Background(), body, nil, c.hit, c.answer(body, true))
		}()
	}
	waitUntil(t, func() bool { return f.Stats().Hits == followers })
	if n := c.full.Load(); n != 0 {
		t.Fatalf("%d followers ran the full path while the leader was in flight", n)
	}
	close(release)
	<-led
	wg.Wait()
	if n := c.full.Load(); n != followers || len(c.hits) != 0 {
		t.Fatalf("%d followers ran the full path and %d were answered from the tier; want %d and 0", n, len(c.hits), followers)
	}
	misses := f.Stats().Misses
	f.Serve(context.Background(), body, nil, c.hit, c.answer(body, true))
	if got := f.Stats().Misses; got != misses+1 {
		t.Errorf("request after the dropped answer: misses %d -> %d, want a miss", misses, got)
	}
}

// TestFrontWaiterContextEnds: a waiter whose own context ends while the
// leader is in flight runs the full path at once, and a panic in the
// leader's full path keeps nothing and still wakes its waiters.
func TestFrontWaiterContextEnds(t *testing.T) {
	f := NewFront(0)
	var c frontCalls
	body := []byte(`{"panics":true}`)
	release := make(chan struct{})
	led := make(chan any)
	go func() {
		defer func() { led <- recover() }()
		f.Serve(context.Background(), body, nil, c.hit, func() FrontAnswer {
			<-release
			panic("solver bug")
		})
	}()
	waitUntil(t, func() bool { return f.Stats().Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Serve(ctx, body, nil, c.hit, c.answer(body, true))
	if c.full.Load() != 1 {
		t.Fatalf("a waiter whose context ended did not run the full path")
	}

	waited := make(chan struct{})
	go func() {
		defer close(waited)
		f.Serve(context.Background(), body, nil, c.hit, c.answer(body, true))
	}()
	waitUntil(t, func() bool { return f.Stats().Hits == 2 })
	close(release)
	if r := <-led; r == nil || !strings.Contains(r.(string), "solver bug") {
		t.Fatalf("leader's panic %v, want it to reach the caller", r)
	}
	<-waited
	if c.full.Load() != 2 || len(c.hits) != 0 || f.Stats().Entries != 0 {
		t.Errorf("after the panic: %d full runs, %d hits, %d entries; want 2, 0, 0", c.full.Load(), len(c.hits), f.Stats().Entries)
	}
}
