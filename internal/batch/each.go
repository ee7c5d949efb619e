package batch

import (
	"context"
	"runtime"
	"sync"
)

// Each runs fn(i) for every i in [0, n) on min(workers, n) goroutines;
// workers <= 0 means runtime.GOMAXPROCS(0). The indices are handed out
// in order over an unbuffered channel, so a worker takes the next index
// only when it is free. Once ctx is done, every index not yet started
// goes to skip instead of fn (a nil skip drops it), which lets a caller
// fill the slots of work that never ran. fn and skip are called
// concurrently, each index exactly once. Each returns only after every
// call has returned.
func Each(ctx context.Context, n, workers int, fn, skip func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if skip == nil {
		skip = func(int) {}
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					skip(i)
				} else {
					fn(i)
				}
			}
		}()
	}
feed:
	for i := range n {
		select {
		case <-ctx.Done():
			// No worker received these, so skip runs them here.
			for j := i; j < n; j++ {
				skip(j)
			}
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
}
