package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// eachProbe counts what Each does with every index: how often it reached
// fn and skip, how many fn calls are in flight, and the most that ever
// were.
type eachProbe struct {
	fn, skip       []atomic.Int32
	inFlight, peak atomic.Int32
	calls          atomic.Int32
}

func newEachProbe(n int) *eachProbe {
	return &eachProbe{fn: make([]atomic.Int32, n), skip: make([]atomic.Int32, n)}
}

// run is an fn for Each; during is called while the call is in flight,
// with the number of fn calls started so far.
func (p *eachProbe) run(i int, during func(started int32)) {
	cur := p.inFlight.Add(1)
	for {
		old := p.peak.Load()
		if cur <= old || p.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	p.fn[i].Add(1)
	during(p.calls.Add(1))
	p.inFlight.Add(-1)
}

// check fails t unless every index reached exactly one of fn and skip,
// and returns how many reached skip.
func (p *eachProbe) check(t *testing.T) (skipped int) {
	t.Helper()
	for i := range p.fn {
		f, s := p.fn[i].Load(), p.skip[i].Load()
		if f+s != 1 {
			t.Errorf("index %d: %d fn calls and %d skips, want exactly one in all", i, f, s)
		}
		skipped += int(s)
	}
	return skipped
}

// TestEach pins the worker pool every fan-out of the module runs on.
func TestEach(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{-1, 1, 3, n + 5} {
			bound := int32(min(workers, n))
			if workers <= 0 {
				bound = int32(min(runtime.GOMAXPROCS(0), n))
			}
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				t.Run("all", func(t *testing.T) {
					p := newEachProbe(n)
					Each(context.Background(), n, workers, func(i int) {
						p.run(i, func(int32) { time.Sleep(20 * time.Microsecond) })
					}, func(i int) { p.skip[i].Add(1) })
					if skipped := p.check(t); skipped != 0 {
						t.Errorf("%d indices skipped under a live context", skipped)
					}
					if peak := p.peak.Load(); peak > bound {
						t.Errorf("%d fn calls overlapped, want at most %d", peak, bound)
					}
				})

				t.Run("pre-cancelled", func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					// A worker receives an index only when it is already
					// waiting as the feed loop first selects, which is
					// rare; repeat so the worker's own check is reached.
					for range 100 {
						p := newEachProbe(n)
						Each(ctx, n, workers, func(i int) { p.run(i, func(int32) {}) },
							func(i int) { p.skip[i].Add(1) })
						if skipped := p.check(t); skipped != n {
							t.Fatalf("%d of %d indices skipped", skipped, n)
						}
						if calls := p.calls.Load(); calls != 0 {
							t.Fatalf("%d fn calls under a cancelled context", calls)
						}
					}
				})

				t.Run("cancelled-mid-run", func(t *testing.T) {
					const cancelAt = 3
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					p := newEachProbe(n)
					Each(ctx, n, workers, func(i int) {
						p.run(i, func(started int32) {
							if started == cancelAt {
								cancel()
							}
							// Still running after the cancellation: Each
							// must wait for this call.
							time.Sleep(200 * time.Microsecond)
						})
					}, func(i int) { p.skip[i].Add(1) })
					if running := p.inFlight.Load(); running != 0 {
						t.Errorf("Each returned with %d fn calls still running", running)
					}
					p.check(t)
					// An index a worker took before the cancellation may
					// still run; nothing taken after it does.
					if calls := p.calls.Load(); n > cancelAt && calls > cancelAt+bound {
						t.Errorf("%d fn calls after cancelling at call %d with %d workers", calls, cancelAt, bound)
					}
				})

				t.Run("nil-skip", func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					Each(ctx, n, workers, func(int) { t.Error("fn ran under a cancelled context") }, nil)
				})
			})
		}
	}
}
