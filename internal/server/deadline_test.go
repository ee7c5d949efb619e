//go:build unix

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/servetest"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestRequestDeadlineStopsSolve sends a request within every wire cap
// whose search takes seconds to a server with a 100 ms request timeout:
// it answers 504 timeout soon after the timeout, and the search it
// started stops with it, so the process burns next to no CPU in the
// second after the answer. The same job as a one-job batch answers 504
// too.
func TestRequestDeadlineStopsSolve(t *testing.T) {
	s := New(Config{Timeout: 100 * time.Millisecond})
	inst := servetest.Fig1JSON(t)
	for _, c := range []struct{ path, body string }{
		{"/v1/solve", `{"instance": ` + inst + `, "request": ` + servetest.SlowSolveRequest + `}`},
		{"/v1/batch", `{"instance": ` + inst + `, "jobs": [{"request": ` + servetest.SlowSolveRequest + `}]}`},
	} {
		start := time.Now()
		rec := post(s, c.path, c.body)
		elapsed := time.Since(start)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d after %v, want 504: %.200s", c.path, rec.Code, elapsed, rec.Body.String())
		}
		var e errorBody
		decode(t, rec, &e)
		if e.Code != jobspec.CodeTimeout {
			t.Errorf("%s: code %q, want timeout", c.path, e.Code)
		}
		if elapsed > 200*time.Millisecond {
			t.Errorf("%s: answered after %v, want within 200ms", c.path, elapsed)
		}
		before := cpuTime(t)
		time.Sleep(time.Second)
		if burnt := cpuTime(t) - before; burnt >= 50*time.Millisecond {
			t.Errorf("%s: the process used %v of CPU in the second after the 504, want under 50ms", c.path, burnt)
		}
	}
}

// TestSlowSolveStorm runs a storm against the admission gate alone: four
// clients loop on a request whose search takes seconds, two on a
// front-tier hit, for two seconds, against a 100 ms timeout, 2 requests
// in flight and 4 queued. Every slow answer is a 504 timeout or a 429
// shed with Retry-After, every hit answers 200 while the storm runs (it
// takes no admission slot), and no search outlives its answer: the
// process burns next to no CPU in the second after the last one.
func TestSlowSolveStorm(t *testing.T) {
	s := New(Config{Timeout: 100 * time.Millisecond, MaxInFlight: 2, MaxQueue: 4})
	inst := servetest.Fig1JSON(t)
	slow := `{"instance": ` + inst + `, "request": ` + servetest.SlowSolveRequest + `}`
	hot := `{"instance": ` + inst + `, "request": {"objective": "latency"}}`
	if rec := post(s, "/v1/solve", hot); rec.Code != http.StatusOK {
		t.Fatalf("warming the hit: status %d: %s", rec.Code, rec.Body.String())
	}

	var hotOK, hotBad, slowBad atomic.Int64
	end := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	client := func(body string, check func(*httptest.ResponseRecorder)) {
		defer wg.Done()
		for time.Now().Before(end) {
			rec := post(s, "/v1/solve", body)
			check(rec)
			if rec.Code == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond) // a shed answers at once: do not spin
			}
		}
	}
	checkSlow := func(rec *httptest.ResponseRecorder) {
		var e errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &e) // a body that is not JSON fails both checks below
		timeout := rec.Code == http.StatusGatewayTimeout && e.Code == jobspec.CodeTimeout
		shed := rec.Code == http.StatusTooManyRequests && e.Code == jobspec.CodeShed && rec.Header().Get("Retry-After") != ""
		if !timeout && !shed && slowBad.Add(1) == 1 {
			t.Errorf("slow answer: status %d, Retry-After %q: %.200s", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
		}
	}
	checkHot := func(rec *httptest.ResponseRecorder) {
		if rec.Code == http.StatusOK {
			hotOK.Add(1)
		} else if hotBad.Add(1) == 1 {
			t.Errorf("hit answer: status %d: %.200s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go client(slow, checkSlow)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go client(hot, checkHot)
	}
	wg.Wait()

	before := cpuTime(t)
	time.Sleep(time.Second)
	if burnt := cpuTime(t) - before; burnt >= 50*time.Millisecond {
		t.Errorf("the process used %v of CPU in the second after the storm, want under 50ms", burnt)
	}
	if n := slowBad.Load(); n > 0 {
		t.Errorf("%d slow answers were neither a 504 timeout nor a 429 shed with Retry-After", n)
	}
	// A front-tier hit takes no admission slot, so no slow solve holds
	// it up.
	if n := hotBad.Load(); n > 0 {
		t.Errorf("the hit answered %d times with a status other than 200", n)
	}
	if hotOK.Load() == 0 {
		t.Error("the hit never answered 200 during the storm")
	}
	t.Logf("the hit answered 200 %d times", hotOK.Load())
}
