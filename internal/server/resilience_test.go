package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/servetest"
)

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// TestShedUnderSaturation saturates a 1-in-flight/1-queued server and
// asserts the overflow request is shed with a structured 429, a code of
// "shed" and a Retry-After header, while the admitted requests finish
// with 200 once the gate frees up.
func TestShedUnderSaturation(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 1})

	// Hold the only admission slot so the next request queues and the one
	// after that overflows — deterministic saturation, no timing games.
	s.sem <- struct{}{}
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "latency"}}`

	queuedDone := make(chan int, 1)
	go func() {
		queuedDone <- post(s, "/v1/solve", body).Code
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// Another body: the same one would wait for the queued request's
	// answer in the front tier, outside the gate.
	rec := post(s, "/v1/solve", strings.Replace(body, "latency", "period", 1))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("shed response has no Retry-After header")
	}
	var e errorBody
	decode(t, rec, &e)
	if e.Code != "shed" || e.Error == "" {
		t.Fatalf("shed body = %+v, want code \"shed\" and an error message", e)
	}

	// Free the held slot: the queued request must be admitted and finish.
	<-s.sem
	select {
	case code := <-queuedDone:
		if code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never finished after the gate freed")
	}

	var st struct {
		Shed int64 `json:"shed"`
	}
	decode(t, get(s, "/stats"), &st)
	if st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
}

// TestShedConcurrentLoad fires a burst far larger than the gate at a
// saturated server: every response must be either a success or a
// structured shed — nothing hangs, nothing is an empty body — and with
// the gate held closed the sheds must actually occur.
func TestShedConcurrentLoad(t *testing.T) {
	s := New(Config{MaxInFlight: 2, MaxQueue: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{} // gate fully held: all admitted requests queue
	inst := servetest.Fig1JSON(t)

	const burst = 16
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct bodies: a repeated one would wait for the first
			// one's answer in the front tier, outside the gate.
			body := fmt.Sprintf(`{"instance": %s, "request": {"objective": "latency", "seed": %d}}`, inst, i)
			codes[i] = post(s, "/v1/solve", body).Code
		}(i)
	}
	// Release the gate once the queue has filled so queued requests run.
	waitFor(t, func() bool { return s.queued.Load() == 2 })
	<-s.sem
	<-s.sem
	wg.Wait()

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: unexpected status %d", i, c)
		}
	}
	if ok < 1 || shed < 1 {
		t.Fatalf("burst of %d: %d ok, %d shed; want at least one of each", burst, ok, shed)
	}
}

// TestBreakerTripsAndCoolsDown drives an endpoint into consecutive
// deadline overruns (a per-request timeout no solve can meet), asserts
// the circuit opens with 503 + Retry-After + code "shed", and that after
// the cooldown the half-open probe is admitted again.
func TestBreakerTripsAndCoolsDown(t *testing.T) {
	s := New(Config{
		Timeout:          time.Nanosecond, // every solve overruns instantly
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "latency"}}`

	for i := 0; i < 2; i++ {
		if rec := post(s, "/v1/solve", body); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("overrun %d: status %d, want 504: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := post(s, "/v1/solve", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("open-circuit response has no Retry-After header")
	}
	var e errorBody
	decode(t, rec, &e)
	if e.Code != "shed" {
		t.Fatalf("open-circuit code = %q, want \"shed\"", e.Code)
	}

	// The breaker is per endpoint: /v1/batch is unaffected by /v1/solve's
	// open circuit (it overruns on its own, but it is admitted).
	if rec := post(s, "/v1/batch", `{"instance": `+servetest.Fig1JSON(t)+`,
		"jobs": [{"request": {"objective": "latency"}}]}`); rec.Code == http.StatusServiceUnavailable {
		t.Fatalf("/v1/batch was shed by /v1/solve's breaker: %s", rec.Body.String())
	}

	var st struct {
		Breakers map[string]string `json:"breakers"`
	}
	decode(t, get(s, "/stats"), &st)
	if st.Breakers["/v1/solve"] != "open" {
		t.Fatalf("stats breaker state = %q, want open (%v)", st.Breakers["/v1/solve"], st.Breakers)
	}

	// After the cooldown the probe is admitted (half-open): it overruns
	// again here, which re-opens the circuit immediately.
	time.Sleep(120 * time.Millisecond)
	if rec := post(s, "/v1/solve", body); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("half-open probe: status %d, want 504 (admitted)", rec.Code)
	}
	if rec := post(s, "/v1/solve", body); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed probe did not re-open the circuit: status %d", rec.Code)
	}
}

// TestBreakerStateMachine unit-tests the recovery path record/allow
// cannot easily reach through HTTP: a success in half-open closes the
// circuit fully.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: time.Minute}
	t0 := time.Unix(1000, 0)
	if ok, probe, _ := b.allow(t0); !ok || probe {
		t.Fatalf("fresh breaker: ok=%v probe=%v, want closed non-probe admit", ok, probe)
	}
	b.record(t0, http.StatusGatewayTimeout, false)
	if ok, _, _ := b.allow(t0); !ok {
		t.Fatal("one overrun below threshold opened the circuit")
	}
	// A shed in between must not reset the streak.
	b.record(t0, http.StatusTooManyRequests, false)
	b.record(t0, http.StatusGatewayTimeout, false)
	if ok, _, wait := b.allow(t0); ok || wait <= 0 {
		t.Fatalf("threshold overruns did not open the circuit (ok=%v wait=%v)", ok, wait)
	}
	if got := b.state(t0); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	after := t0.Add(2 * time.Minute)
	ok, probe, _ := b.allow(after)
	if !ok || !probe {
		t.Fatalf("cooldown elapsed: ok=%v probe=%v, want the half-open probe admitted", ok, probe)
	}
	if got := b.state(after); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	b.record(after, http.StatusOK, probe)
	if got := b.state(after); got != "closed" {
		t.Fatalf("successful probe left state %q, want closed", got)
	}
	b.record(after, http.StatusGatewayTimeout, false)
	if ok, _, _ := b.allow(after); !ok {
		t.Fatal("closed circuit opened after a single overrun")
	}
}

// TestBreakerSingleHalfOpenProbe is the half-open thundering-herd
// satellite regression: after the cooldown, exactly one request may probe
// the endpoint — a concurrent burst must be shed with a Retry-After hint,
// not land whole on an endpoint that just proved unhealthy.
func TestBreakerSingleHalfOpenProbe(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: time.Minute}
	t0 := time.Unix(1000, 0)
	b.record(t0, http.StatusGatewayTimeout, false) // trips: threshold 1
	after := t0.Add(2 * time.Minute)

	// A concurrent burst arrives exactly at cooldown expiry.
	const burst = 16
	var mu sync.Mutex
	admitted, probes, shed := 0, 0, 0
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, probe, wait := b.allow(after)
			mu.Lock()
			defer mu.Unlock()
			if ok {
				admitted++
				if probe {
					probes++
				}
			} else {
				shed++
				if wait <= 0 {
					t.Error("shed half-open request carries no Retry-After hint")
				}
			}
		}()
	}
	wg.Wait()
	if admitted != 1 || probes != 1 || shed != burst-1 {
		t.Fatalf("half-open burst of %d: admitted=%d probes=%d shed=%d, want exactly one probe",
			burst, admitted, probes, shed)
	}

	// While the probe is in flight every later arrival is shed too...
	if ok, _, _ := b.allow(after.Add(time.Second)); ok {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// ...even one whose own status says nothing about health (a 429 from
	// the admission gate must not release the probe slot it never held).
	b.record(after.Add(time.Second), http.StatusTooManyRequests, false)
	if ok, _, _ := b.allow(after.Add(2 * time.Second)); ok {
		t.Fatal("bystander 429 released the in-flight probe's slot")
	}

	// The probe reporting back releases the slot: an overrun re-opens the
	// circuit for a fresh cooldown, then the next window admits one probe
	// again.
	b.record(after.Add(3*time.Second), http.StatusGatewayTimeout, true)
	if ok, _, wait := b.allow(after.Add(4 * time.Second)); ok || wait <= 0 {
		t.Fatalf("failed probe did not re-open the circuit (ok=%v wait=%v)", ok, wait)
	}
	next := after.Add(3*time.Second + 2*time.Minute)
	if ok, probe, _ := b.allow(next); !ok || !probe {
		t.Fatalf("next cooldown window: ok=%v probe=%v, want a fresh probe", ok, probe)
	}
	// A successful probe closes the circuit for everyone.
	b.record(next, http.StatusOK, true)
	if ok, probe, _ := b.allow(next.Add(time.Second)); !ok || probe {
		t.Fatalf("after recovery: ok=%v probe=%v, want plain closed admission", ok, probe)
	}
}

// TestDrain pins the probe split: while draining, /readyz answers 503 so
// load balancers stop routing here, /healthz stays 200 (the process is
// alive, restarting it would kill the drain), and an in-flight request
// runs to completion.
func TestDrain(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the gate so a request is genuinely in flight (queued on the
	// semaphore) while we flip draining.
	s.sem <- struct{}{}
	body := `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {"objective": "period"}}`
	inFlight := make(chan int, 1)
	go func() {
		inFlight <- post(s, "/v1/solve", body).Code
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	s.SetDraining(true)
	if rec := get(s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", rec.Code)
	}
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200", rec.Code)
	}
	var st struct {
		Draining bool `json:"draining"`
	}
	decode(t, get(s, "/stats"), &st)
	if !st.Draining {
		t.Fatal("stats does not report draining")
	}

	// The in-flight request finishes normally despite the drain.
	<-s.sem
	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d during drain, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not finish during drain")
	}

	s.SetDraining(false)
	if rec := get(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after drain cleared: status %d, want 200", rec.Code)
	}
}

// TestResolveEndpoint runs a processor failure through /v1/resolve and
// checks the response carries both verified solves and a migration diff
// that retires the failed processor.
func TestResolveEndpoint(t *testing.T) {
	s := New(Config{})
	rec := post(s, "/v1/resolve", `{"instance": `+servetest.Fig1JSON(t)+`,
		"request": {"objective": "period"},
		"event": {"kind": "proc-fail", "proc": 0}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Event struct {
			Kind string `json:"kind"`
			Proc int    `json:"proc"`
		} `json:"event"`
		Before struct {
			Value float64 `json:"value"`
		} `json:"before"`
		After struct {
			Value float64 `json:"value"`
		} `json:"after"`
		Diff struct {
			StagesTotal  int   `json:"stagesTotal"`
			StagesMoved  int   `json:"stagesMoved"`
			ProcsRetired []int `json:"procsRetired"`
		} `json:"diff"`
	}
	decode(t, rec, &resp)
	if resp.Event.Kind != "proc-fail" || resp.Event.Proc != 0 {
		t.Fatalf("event echoed wrong: %+v", resp.Event)
	}
	if resp.Before.Value <= 0 || resp.After.Value < resp.Before.Value {
		t.Fatalf("losing a processor improved the optimum: before %g, after %g",
			resp.Before.Value, resp.After.Value)
	}
	if resp.Diff.StagesTotal <= 0 {
		t.Fatalf("empty diff: %+v", resp.Diff)
	}
	retired := false
	for _, u := range resp.Diff.ProcsRetired {
		if u == 0 {
			retired = true
		}
	}
	if !retired && resp.Diff.StagesMoved == 0 {
		t.Fatalf("failing P0 neither retired it nor moved stages: %+v", resp.Diff)
	}
}

// TestResolveErrors pins the /v1/resolve error classifications: an
// unknown event kind and an inapplicable event are client errors with
// stable codes, never 500s.
func TestResolveErrors(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"no instance", `{"request": {}, "event": {"kind": "proc-fail"}}`,
			http.StatusBadRequest, "invalid"},
		{"bad kind", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {}, "event": {"kind": "meteor"}}`,
			http.StatusBadRequest, "invalid"},
		{"out of range", `{"instance": ` + servetest.Fig1JSON(t) + `, "request": {}, "event": {"kind": "proc-fail", "proc": 99}}`,
			http.StatusUnprocessableEntity, "invalid"},
	}
	for _, tc := range cases {
		rec := post(s, "/v1/resolve", tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		var e errorBody
		decode(t, rec, &e)
		if e.Code != tc.code || e.Error == "" {
			t.Fatalf("%s: body %+v, want code %q and an error", tc.name, e, tc.code)
		}
	}
}

// TestErrorCodes pins the machine-readable code on the classic error
// shapes of the pre-existing endpoints (satellite of the wire-code
// contract: old "error" text stays, "code" is stable).
func TestErrorCodes(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed body", "/v1/solve", `{"instance": 12`, http.StatusBadRequest, "invalid"},
		{"infeasible", "/v1/solve", `{"instance": ` + servetest.Fig1JSON(t) + `,
			"request": {"objective": "energy", "periodBound": 0.0001}}`,
			http.StatusUnprocessableEntity, "infeasible"},
	}
	for _, tc := range cases {
		rec := post(s, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		var e errorBody
		decode(t, rec, &e)
		if e.Code != tc.code {
			t.Fatalf("%s: code %q, want %q (error %q)", tc.name, e.Code, tc.code, e.Error)
		}
	}
}

// TestSolveBudgetDegradedResponse arms the server-wide work ceiling with
// 1000 steps, far less than the slow request's 16 million: the annealer
// runs at most 1000 steps and the response is a 200 tagged degraded with
// a lower bound, within 120 ms, not a 504.
func TestSolveBudgetDegradedResponse(t *testing.T) {
	s := New(Config{SolveWork: 1000})
	start := time.Now()
	rec := post(s, "/v1/solve", `{"instance": `+servetest.Fig1JSON(t)+`, "request": `+servetest.SlowSolveRequest+`}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted solve: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("a ceiling of 1000 steps answered after %v, want within 120ms", elapsed)
	}
	var resp struct {
		Value      float64 `json:"value"`
		Degraded   bool    `json:"degraded"`
		Code       string  `json:"code"`
		LowerBound float64 `json:"lowerBound"`
		BoundGap   float64 `json:"boundGap"`
	}
	decode(t, rec, &resp)
	if !resp.Degraded || resp.Code != "degraded" {
		t.Fatalf("ceiling of 1000 steps: %+v, want degraded with code \"degraded\"", resp)
	}
	if resp.LowerBound <= 0 || resp.LowerBound > resp.Value {
		t.Fatalf("lower bound %g not in (0, %g]", resp.LowerBound, resp.Value)
	}
	if got := resp.Value - resp.LowerBound; abs(got-resp.BoundGap) > 1e-12 {
		t.Fatalf("boundGap %g != value-lowerBound %g", resp.BoundGap, got)
	}
}

// TestSolveBudgetSlotInBatch gives a two-job batch a work ceiling of one
// step, which no search can use: the polynomial latency job answers in
// full, and the period job, whose search finds no mapping within the
// ceiling, answers unresolved in its own slot. The ceiling bounds the
// job, not the request, so the batch is a 200, not an aborted 504.
func TestSolveBudgetSlotInBatch(t *testing.T) {
	s := New(Config{SolveWork: 1})
	inst := servetest.Fig1JSON(t)
	rec := post(s, "/v1/batch", `{"instance": `+inst+`, "jobs": [`+servetest.BudgetSlotJobs+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with an unresolved slot: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
		Stats   jobspec.Stats     `json:"stats"`
	}
	decode(t, rec, &out)
	if len(out.Results) != 2 || out.Stats.Errors != 1 {
		t.Fatalf("%d slots, %d errors; want 2 slots and 1 error: %s", len(out.Results), out.Stats.Errors, rec.Body.String())
	}
	want := canonicalAnswer(t, `{"instance": `+inst+`, "request": {"objective": "latency"}}`)
	if slot := string(out.Results[0]) + "\n"; slot != string(want) {
		t.Errorf("latency slot %q, core.Solve encodes %q", slot, want)
	}
	var res jobspec.Result
	if err := json.Unmarshal(out.Results[1], &res); err != nil || res.Code != jobspec.CodeUnresolved {
		t.Errorf("period slot %s, want code unresolved", out.Results[1])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueExpiryIsNoOverrun pins what the breaker learns from a request
// whose deadline ends while it waits for an admission slot: nothing. Such
// requests answer 504 but never reach the endpoint, so several of them
// leave a threshold-2 breaker closed, and a half-open probe that expires
// in the queue gives the probe slot back without re-opening the circuit.
// Real solver overruns still open it.
func TestQueueExpiryIsNoOverrun(t *testing.T) {
	s := New(Config{Timeout: 50 * time.Millisecond, MaxInFlight: 1, MaxQueue: 4,
		BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond})
	inst := servetest.Fig1JSON(t)
	hot := `{"instance": ` + inst + `, "jobs": [{"request": {"objective": "latency"}}]}`
	slow := `{"instance": ` + inst + `, "jobs": [{"request": ` + servetest.SlowSolveRequest + `}]}`
	state := func() string {
		var st struct {
			Breakers map[string]string `json:"breakers"`
		}
		decode(t, get(s, "/stats"), &st)
		return st.Breakers["/v1/batch"]
	}
	expire := func(what string) {
		t.Helper()
		s.sem <- struct{}{} // hold the only slot: the request queues until its deadline
		rec := post(s, "/v1/batch", hot)
		<-s.sem
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504 from the queue: %s", what, rec.Code, rec.Body.String())
		}
	}

	for i := 0; i < 3; i++ {
		expire(fmt.Sprintf("queued request %d", i))
	}
	if got := state(); got != "closed" {
		t.Fatalf("after 3 requests expired in the queue the breaker is %s, want closed", got)
	}

	for i := 0; i < 2; i++ {
		if rec := post(s, "/v1/batch", slow); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("overrun %d: status %d, want 504: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := state(); got != "open" {
		t.Fatalf("after 2 solver overruns the breaker is %s, want open", got)
	}

	time.Sleep(250 * time.Millisecond)
	expire("half-open probe")
	if got := state(); got != "half-open" {
		t.Fatalf("after the probe expired in the queue the breaker is %s, want half-open", got)
	}
	if rec := post(s, "/v1/batch", hot); rec.Code != http.StatusOK {
		t.Fatalf("next probe: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if got := state(); got != "closed" {
		t.Fatalf("after a successful probe the breaker is %s, want closed", got)
	}
}
