package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffDelayNeverOverflows walks every attempt a shift can express:
// base·2ⁿ overflows int64 from attempt 37 at the 100ms default base (and
// wraps to 0 from attempt 56), which must take the 10s cap instead of
// panicking in the jitter draw or collapsing the wait to nothing.
func TestBackoffDelayNeverOverflows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range []time.Duration{DefaultRetryBase, time.Nanosecond, 3 * time.Millisecond, time.Hour, 0} {
		for attempt := 0; attempt < 64; attempt++ {
			want := maxBackoff
			if base > 0 && float64(base)*math.Pow(2, float64(attempt)) < float64(maxBackoff) {
				want = base << attempt
			}
			lo := backoffDelay(base, attempt, func(int64) int64 { return 0 })
			hi := backoffDelay(base, attempt, func(n int64) int64 { return n - 1 })
			if lo != want/2 || hi != want/2+want/2 {
				t.Fatalf("base %v attempt %d: delay range [%v, %v], want [%v, %v]", base, attempt, lo, hi, want/2, want/2+want/2)
			}
			if d := backoffDelay(base, attempt, rng.Int63n); d < lo || d > hi {
				t.Fatalf("base %v attempt %d: delay %v outside [%v, %v]", base, attempt, d, lo, hi)
			}
		}
	}
}

// TestRetrierSchedule pins the shared retry loop: sheds retry up to the
// budget and the last one comes back with its response, a Retry-After
// sets the wait even when the backoff would be longer, and a hard error
// is returned at once.
func TestRetrierSchedule(t *testing.T) {
	var calls, status atomic.Int32
	var retryAfter atomic.Bool
	status.Store(http.StatusTooManyRequests)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if retryAfter.Load() {
			w.Header().Set("Retry-After", "7")
		}
		w.WriteHeader(int(status.Load()))
		fmt.Fprint(w, `{"error": "busy", "code": "shed"}`)
	}))
	defer ts.Close()

	var waits []time.Duration
	r := Retrier{Client: NewClient(time.Second), Retries: 2, Base: time.Millisecond, Jitter: rand.New(rand.NewSource(1)).Int63n,
		OnRetry: func(_ int, _ error, wait time.Duration) { waits = append(waits, wait) }}
	resp, body, err := r.Post(context.Background(), ts.URL, []byte(`{}`))
	if !errors.Is(err, errShed) || resp == nil || resp.StatusCode != http.StatusTooManyRequests || len(body) == 0 {
		t.Fatalf("exhausted sheds: resp %v, body %q, err %v; want the last 429 and errShed", resp, body, err)
	}
	if calls.Load() != 3 || len(waits) != 2 || waits[0] > time.Millisecond || waits[1] < time.Millisecond || waits[1] > 2*time.Millisecond {
		t.Fatalf("%d calls, waits %v; want 3 calls and two backoff waits", calls.Load(), waits)
	}

	// Retry-After wins over a longer backoff. OnRetry cancels the context,
	// so the wait is reported but not slept.
	retryAfter.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	r = Retrier{Client: NewClient(time.Second), Retries: 5, Base: time.Hour, Jitter: rand.New(rand.NewSource(1)).Int63n,
		OnRetry: func(_ int, _ error, wait time.Duration) { waits = append(waits[:0], wait); cancel() }}
	if resp, _, err := r.Post(ctx, ts.URL, []byte(`{}`)); resp == nil || !errors.Is(err, errShed) || len(waits) != 1 || waits[0] != 7*time.Second {
		t.Fatalf("Retry-After: resp %v, err %v, waits %v; want one 7s wait", resp, err, waits)
	}

	calls.Store(0)
	status.Store(http.StatusBadRequest)
	if resp, _, err := r.Post(context.Background(), ts.URL, []byte(`{}`)); err != nil || resp.StatusCode != http.StatusBadRequest || calls.Load() != 1 {
		t.Fatalf("hard error: resp %v, err %v, %d calls; want the 400 once, no error", resp, err, calls.Load())
	}
}
