// HTTP client plumbing shared by the gateway and the pipebatch remote
// mode: a timed client (the default http.Client has no timeout, so one
// hung replica would wedge a retry loop forever), the RFC 7231
// Retry-After parser, and jittered exponential backoff.

package gateway

import (
	"net/http"
	"strconv"
	"time"
)

// DefaultClientTimeout bounds each HTTP attempt when the caller does not
// choose a timeout: roughly twice the server's default per-request
// deadline (pipeserved ships 30s), so a healthy-but-slow reply gets
// through while a hung connection cannot stall a retry loop forever.
const DefaultClientTimeout = 60 * time.Second

// NewClient returns an http.Client with a per-attempt timeout
// (timeout <= 0 means DefaultClientTimeout). Never use http.DefaultClient
// for solver traffic — it has no timeout at all.
func NewClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = DefaultClientTimeout
	}
	return &http.Client{Timeout: timeout}
}

// ParseRetryAfter interprets a Retry-After header value per RFC 7231
// §7.1.3: either a non-negative delta in whole seconds or an HTTP-date.
// It returns 0 for an absent, malformed, or already-elapsed value — the
// caller falls back to its own backoff schedule.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if wait := t.Sub(now); wait > 0 {
			return wait
		}
	}
	return 0
}

// backoffDelay is attempt n (0-based) of a jittered exponential backoff:
// uniform in [base·2ⁿ/2, base·2ⁿ], capped at 10s. The jitter decorrelates
// clients that shed at the same instant — a deterministic schedule would
// march them back in lockstep and reproduce the overload.
//
// jitter(n) draws uniformly from [0, n).
func backoffDelay(base time.Duration, attempt int, jitter func(n int64) int64) time.Duration {
	d := base << attempt
	if max := 10 * time.Second; d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(jitter(int64(half)+1))
}

// retryWait picks the wait before retrying a shed attempt: the server's
// Retry-After when it sent one (it knows its own cooldown), otherwise the
// jittered backoff schedule.
func retryWait(retryAfter string, base time.Duration, attempt int, jitter func(n int64) int64, now time.Time) time.Duration {
	if wait := ParseRetryAfter(retryAfter, now); wait > 0 {
		return wait
	}
	return backoffDelay(base, attempt, jitter)
}
