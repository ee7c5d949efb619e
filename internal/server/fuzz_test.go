package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/jobspec"
	"repro/internal/servetest"
)

// wireCodes is the jobspec error-code vocabulary: every code an answer
// may carry.
var wireCodes = map[string]bool{
	jobspec.CodeInfeasible: true,
	jobspec.CodeUnresolved: true,
	jobspec.CodeTimeout:    true,
	jobspec.CodeDegraded:   true,
	jobspec.CodeShed:       true,
	jobspec.CodeInvalid:    true,
	jobspec.CodeInternal:   true,
}

// FuzzSolveStatus posts /v1/solve bodies on Figure 1 built from fuzzed
// request fields: objective, rule and model (valid, empty or unknown),
// period and latency bound arrays of any length from absent to longer
// than the application count, their scale, an energy budget, an exact
// limit and an annealing effort: small, or past the wire's caps (1,000,000
// steps, 16 restarts), where it must be refused before any solver runs. A
// decodable request never answers 500: that status is for solver bugs.
// Every other non-200 answer is an {"error","code"} document, and every
// code is in jobspec's vocabulary.
func FuzzSolveStatus(f *testing.F) {
	// Seeds: a period bound array shorter than the application count, a
	// solvable energy request, an unresolved one, a period objective
	// under latency bounds and a budget, unknown names, and a forced
	// anneal of 2,000,000,000 steps.
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), uint8(0), 1.0, 0.0, int64(0), int64(0), int64(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(3), uint8(0), 2.0, 0.0, int64(0), int64(0), int64(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(3), uint8(0), 0.01, 0.0, int64(1), int64(8), int64(1))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), uint8(3), 4.0, 46.0, int64(0), int64(16), int64(2))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(1), uint8(1), -1.0, -1.0, int64(-1), int64(0), int64(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), 1.0, 0.0, int64(1), int64(2_000_000_000), int64(0))

	fig1 := json.RawMessage(servetest.Fig1JSON(f))
	objectives := []string{"", "period", "latency", "energy", "vibes"}
	rules := []string{"", "interval", "one-to-one", "diagonal"}
	models := []string{"", "overlap", "no-overlap", "psychic"}
	// bounds is absent for n%6 == 0, else n%6-1 bounds: 0 to 4 against
	// Figure 1's 2 applications.
	bounds := func(n uint8, scale float64) []float64 {
		if n%6 == 0 {
			return nil
		}
		out := make([]float64, n%6-1)
		for i := range out {
			out[i] = scale * float64(i+1)
		}
		return out
	}
	finite := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return x
	}
	// effort keeps an effort within the cap small, so each run stays
	// quick, and passes one past the cap through unchanged.
	effort := func(x, cap, small int64) int64 {
		if x > cap {
			return x
		}
		return x % small
	}
	s := New(Config{})
	f.Fuzz(func(t *testing.T, obj, rule, model, perLen, latLen uint8, scale, budget float64, exactLimit, iters, restarts int64) {
		scale = finite(scale)
		req := map[string]any{
			"objective":    objectives[int(obj)%len(objectives)],
			"rule":         rules[int(rule)%len(rules)],
			"model":        models[int(model)%len(models)],
			"energyBudget": finite(budget),
			"exactLimit":   exactLimit,
			"heurIters":    effort(iters, 1_000_000, 64),
			"heurRestarts": effort(restarts, 16, 3),
		}
		if b := bounds(perLen, scale); b != nil {
			req["periodBounds"] = b
		}
		if b := bounds(latLen, 2*scale); b != nil {
			req["latencyBounds"] = b
		}
		body, err := json.Marshal(map[string]any{"instance": fig1, "request": req})
		if err != nil {
			t.Fatal(err)
		}
		checkStatus(t, body, post(s, "/v1/solve", string(body)))
	})
}

// checkStatus asserts the three properties of every fuzzed answer: not
// 500, a non-200 is an {"error","code"} document, and its code is in
// jobspec's vocabulary.
func checkStatus(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s answered 500: %s", body, rec.Body.String())
	}
	servetest.CheckStructuredError(t, string(body), rec)
	var doc struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s answered %d with a body that does not decode: %v", body, rec.Code, err)
	}
	if doc.Code != "" && !wireCodes[doc.Code] {
		t.Fatalf("%s answered code %q, not in jobspec's vocabulary", body, doc.Code)
	}
}

// FuzzParetoSimulateStatus posts /v1/pareto and /v1/simulate bodies on
// Figure 1 built from fuzzed fields, and asserts of each answer what
// FuzzSolveStatus asserts. A pareto body has a fuzzed rule and model
// (valid, empty or unknown), period target, energy budget and
// includeMappings. A simulate body has a fuzzed model and datasets count
// and a mapping whose interval bounds, processors and modes are fuzzed,
// so it may be invalid in any of them.
func FuzzParetoSimulateStatus(f *testing.F) {
	// Seeds: a valid simulation asking for 2^62 datasets, one with the
	// default count, a mapping with out-of-range fields, and pareto
	// bodies with and without queries and witnesses.
	f.Add(true, uint8(1), uint8(1), 2.0, 46.0, false, int8(2), int8(1), int8(0), int8(3), int8(1), int8(2), int8(0), int8(1), int64(1)<<62)
	f.Add(true, uint8(0), uint8(2), 0.0, 0.0, false, int8(0), int8(3), int8(0), int8(1), int8(2), int8(0), int8(1), int8(0), int64(0))
	f.Add(true, uint8(3), uint8(0), 0.0, 0.0, false, int8(-1), int8(9), int8(-3), int8(127), int8(2), int8(1), int8(-128), int8(5), int64(-7))
	f.Add(false, uint8(1), uint8(1), 2.0, 46.0, true, int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int64(0))
	f.Add(false, uint8(2), uint8(2), -1.0, 1e300, false, int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int64(0))
	f.Add(false, uint8(3), uint8(3), 0.0, 0.0, true, int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int64(0))

	fig1 := json.RawMessage(servetest.Fig1JSON(f))
	rules := []string{"", "interval", "one-to-one", "diagonal"}
	models := []string{"", "overlap", "no-overlap", "psychic"}
	finite := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return x
	}
	// interval is one placed interval of the mapping document, with
	// fields of any value.
	type interval struct {
		From int `json:"from"`
		To   int `json:"to"`
		Proc int `json:"proc"`
		Mode int `json:"mode"`
	}
	// split cuts an application of n stages after stage cut, when the cut
	// falls inside it, and places the parts on procs[0] and procs[1] at
	// the given mode.
	split := func(n, cut int, procs [2]int8, mode int8) map[string][]interval {
		ivs := []interval{{From: 0, To: cut, Proc: int(procs[0]), Mode: int(mode)}}
		if cut >= 0 && cut < n-1 {
			ivs = append(ivs, interval{From: cut + 1, To: n - 1, Proc: int(procs[1]), Mode: int(mode)})
		}
		return map[string][]interval{"intervals": ivs}
	}
	s := New(Config{})
	f.Fuzz(func(t *testing.T, simulate bool, rule, model uint8, target, budget float64, withMappings bool,
		cut0, cut1, proc0, proc1, proc2, proc3, mode0, mode1 int8, datasets int64) {
		var path string
		var doc map[string]any
		if simulate {
			path = "/v1/simulate"
			doc = map[string]any{
				"instance": fig1,
				"mapping": map[string]any{"apps": []any{
					split(3, int(cut0), [2]int8{proc0, proc1}, mode0),
					split(4, int(cut1), [2]int8{proc2, proc3}, mode1),
				}},
				"model":    models[int(model)%len(models)],
				"datasets": datasets,
			}
		} else {
			path = "/v1/pareto"
			doc = map[string]any{
				"instance":        fig1,
				"rule":            rules[int(rule)%len(rules)],
				"model":           models[int(model)%len(models)],
				"includeMappings": withMappings,
			}
			if target != 0 {
				doc["periodTarget"] = finite(target)
			}
			if budget != 0 {
				doc["energyBudget"] = finite(budget)
			}
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkStatus(t, body, post(s, path, string(body)))
	})
}
