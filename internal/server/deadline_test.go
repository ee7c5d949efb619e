//go:build unix

package server

import (
	"net/http"
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
