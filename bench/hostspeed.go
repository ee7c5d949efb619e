package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"
)

// hostSpeed measures how fast the host runs at a given moment, with code
// the program under test does not contain: nproc closed-loop clients post
// one fixed JSON document to an echo handler (decode, re-encode) on a
// loopback listener of its own, for a slice of a hundredth of the run.
//
// On a shared host the speed of the same code drifts by a quarter or more
// within tens of seconds, which no amount of averaging inside one run
// removes. The benchmark measures the echo next to every timed slice and
// reports each timing at the reference speed, scaling it by the echo's
// rate over refEchoRate. Drift that slows the cluster slows the echo
// alike and cancels; a change to the program moves the cluster alone.
// README.md (Noise) gives the spreads with and without the scaling.
type hostSpeed struct {
	srv    *httptest.Server
	client *http.Client
	slice  time.Duration
}

// refEchoRate is the echo's rate, in requests/s, at the reference speed:
// about the median on the host the benchmark was defined on.
const refEchoRate = 14000

// echoDoc is the echo's fixed request: about the size and shape of one
// job's instance.
var echoDoc = []byte(`{"apps":[{"in":2,"stages":[{"work":5,"out":3},{"work":2,"out":1},{"work":7,"out":4},{"work":3,"out":0}],"weight":1},{"in":1,"stages":[{"work":4,"out":2},{"work":6,"out":2},{"work":1,"out":0}],"weight":2}],"platform":{"processors":[{"speeds":[2,4,6]},{"speeds":[3,5]},{"speeds":[1,4,8]},{"speeds":[2,6]},{"speeds":[3,7]},{"speeds":[5]}],"bandwidth":[[0,2,2,3,1,2],[2,0,3,1,2,2],[2,3,0,2,2,1],[3,1,2,0,2,3],[1,2,2,2,0,2],[2,2,1,3,2,0]]},"energy":{"static":1,"alpha":2.5},"request":{"objective":"energy","rule":"interval","model":"overlap","periodBounds":[9.5,12.25]}}`)

// newHostSpeed starts the echo for a run of about seconds.
func newHostSpeed(seconds float64) *hostSpeed {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc any
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
	}))
	return &hostSpeed{srv: srv, client: newClient(), slice: time.Duration(seconds / 100 * float64(time.Second))}
}

func (h *hostSpeed) close() {
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// sample runs the echo for one slice and returns its rate as a share of
// refEchoRate: below 1 when the host runs slower than the reference.
func (h *hostSpeed) sample() (float64, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var done int
	var firstErr error
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			var err error
			for err == nil && (n == 0 || time.Since(start) < h.slice) {
				if err = h.echo(); err == nil {
					n++
				}
			}
			mu.Lock()
			done += n
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, fmt.Errorf("host-speed echo: %w", firstErr)
	}
	return float64(done) / time.Since(start).Seconds() / refEchoRate, nil
}

func (h *hostSpeed) echo() error {
	resp, err := h.client.Post(h.srv.URL, "application/json", bytes.NewReader(echoDoc))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("echo answered %s", resp.Status)
	}
	return err
}
