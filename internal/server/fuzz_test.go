package server

import (
	"encoding/json"
	"math"
	"net/http"
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
// limit and a small annealing effort. A decodable request never answers
// 500: that status is for solver bugs. Every other non-200 answer is an
// {"error","code"} document, and every code is in jobspec's vocabulary.
func FuzzSolveStatus(f *testing.F) {
	// Seeds: a period bound array shorter than the application count, a
	// solvable energy request, an unresolved one, a period objective
	// under latency bounds and a budget, and unknown names.
	f.Add(uint8(2), uint8(0), uint8(0), uint8(2), uint8(0), 1.0, 0.0, int64(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(3), uint8(0), 2.0, 0.0, int64(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(3), uint8(0), 0.01, 0.0, int64(1), uint8(8), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(2), uint8(0), uint8(3), 4.0, 46.0, int64(0), uint8(16), uint8(2))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(1), uint8(1), -1.0, -1.0, int64(-1), uint8(0), uint8(0))

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
	s := New(Config{})
	f.Fuzz(func(t *testing.T, obj, rule, model, perLen, latLen uint8, scale, budget float64, exactLimit int64, iters, restarts uint8) {
		scale = finite(scale)
		req := map[string]any{
			"objective":    objectives[int(obj)%len(objectives)],
			"rule":         rules[int(rule)%len(rules)],
			"model":        models[int(model)%len(models)],
			"energyBudget": finite(budget),
			"exactLimit":   exactLimit,
			"heurIters":    int(iters % 64),
			"heurRestarts": int(restarts % 3),
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
		rec := post(s, "/v1/solve", string(body))
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
	})
}
