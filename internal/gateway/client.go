// HTTP client plumbing shared by the gateway and the pipebatch remote
// mode: a timed client (the default http.Client has no timeout, so one
// hung replica would wedge a retry loop forever), the RFC 7231
// Retry-After parser, jittered exponential backoff, and the retrying POST
// built from them.

package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// maxBackoff caps every backoff wait.
const maxBackoff = 10 * time.Second

// backoffDelay is attempt n (0-based) of a jittered exponential backoff:
// uniform in [d/2, d] with d = base·2ⁿ capped at maxBackoff. The jitter
// decorrelates clients that shed at the same instant — a deterministic
// schedule would march them back in lockstep and reproduce the overload.
// A base·2ⁿ that would overflow, and a non-positive base, take the cap.
//
// jitter(n) draws uniformly from [0, n).
func backoffDelay(base time.Duration, attempt int, jitter func(n int64) int64) time.Duration {
	d := maxBackoff
	if base > 0 && base <= maxBackoff>>attempt {
		d = base << attempt
	}
	half := d / 2
	return half + time.Duration(jitter(int64(half)+1))
}

// retryWait picks the wait before retrying a failed attempt: the server's
// Retry-After when it sent one (it knows its own cooldown), otherwise the
// jittered backoff schedule.
func retryWait(retryAfter string, base time.Duration, attempt int, jitter func(n int64) int64, now time.Time) time.Duration {
	if wait := ParseRetryAfter(retryAfter, now); wait > 0 {
		return wait
	}
	return backoffDelay(base, attempt, jitter)
}

// sleepCtx waits d or until ctx is done; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// errShed marks an upstream rejection that exhausted its retries.
var errShed = errors.New("gateway: upstream shed the request")

// Retrier is the retrying POST of the gateway and of pipebatch -server:
// transport failures (including the client's per-attempt timeout) and
// shed responses (429/503) are retried up to Retries times, each after
// the server's Retry-After when it sent one and the jittered backoff
// otherwise; any other response is the caller's to judge.
type Retrier struct {
	Client  *http.Client
	Retries int           // retries after the first attempt; <= 0 means none
	Base    time.Duration // base of the jittered backoff
	// Jitter draws uniformly from [0, n). Concurrent Posts call it
	// concurrently.
	Jitter func(n int64) int64
	// OnRetry, if set, is called before each wait with the 0-based
	// attempt that failed, its error and the wait.
	OnRetry func(attempt int, err error, wait time.Duration)
}

// Post sends body to url on r's schedule and returns the response with its
// body read in full. A shed that outlives the retries returns its last
// response and body together with an error wrapping errShed; any other
// failure returns a nil response (ctx's error when ctx ended it).
func (r *Retrier) Post(ctx context.Context, url string, body []byte) (*http.Response, []byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, respBody, err := r.do(req)
		if err == nil || resp == nil && ctx.Err() != nil || attempt >= r.Retries {
			return resp, respBody, err
		}
		retryAfter := ""
		if resp != nil {
			retryAfter = resp.Header.Get("Retry-After")
		}
		wait := retryWait(retryAfter, r.Base, attempt, r.Jitter, time.Now())
		if r.OnRetry != nil {
			r.OnRetry(attempt, err, wait)
		}
		if !sleepCtx(ctx, wait) {
			return resp, respBody, err
		}
	}
}

// do is one attempt of Post: err is set for a transport failure (nil
// response; the request context's error when that ended the attempt) and
// for a shed.
func (r *Retrier) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := r.Client.Do(req)
	if err != nil {
		// Connection refused, reset, or the client's per-attempt
		// timeout: the request may simply have raced a restart.
		if ctx := req.Context(); ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return resp, respBody, fmt.Errorf("%w: %s answered %d", errShed, req.URL, resp.StatusCode)
	}
	return resp, respBody, nil
}
