package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// freePort grabs an ephemeral port for the test server.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestServeSolveAndGracefulShutdown boots the real daemon, serves one
// solve over TCP, and shuts it down with SIGTERM — the full lifecycle.
func TestServeSolveAndGracefulShutdown(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-cache-cap", "64", "-timeout", "5s", "-drain", "2s"})
	}()

	// Wait for the listener.
	url := "http://" + addr
	var up bool
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !up {
		t.Fatal("server did not come up")
	}

	inst := pipeline.MotivatingExample()
	var buf bytes.Buffer
	if err := pipeline.EncodeJSON(&buf, &inst); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"instance": %s, "request": {"objective": "energy", "periodBound": 2}}`, buf.String())
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, payload)
	}
	var res struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(payload, &res); err != nil || res.Value != 46 {
		t.Errorf("solve response missing the paper's 46 (%v): %s", err, payload)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within the drain budget")
	}
}

// TestBadFlags pins the non-zero exit path.
func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}
