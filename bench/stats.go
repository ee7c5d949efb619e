package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the number of samples it rests on
// (requests, spans, jobs or setups, as the metric's doc says).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one run reports: its metrics plus the request tallies
// and the first wrong answer, if any.
type result struct {
	Metrics   []metric
	Attempted int
	Failed    int
	Wrong     error
	// Notes are human-readable lines printed before the metrics (phase
	// sizes, validity warnings, zero-by-design counters).
	Notes []string
}

// correct reports a run with no wrong answer and no failed request: every
// workload holds only jobs the library answers, so a failure is a defect.
func (r *result) correct() bool { return r.Wrong == nil && r.Failed == 0 }

func (r *result) add(name string, value float64, unit string, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and, as the last line, a JSON
// summary: correctness, request tallies and each metric's value and unit.
func (r *result) print(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if r.Wrong != nil {
		fmt.Fprintln(w, "WRONG ANSWER:", r.Wrong)
	}
	fmt.Fprintf(w, "attempted %d requests, failed %d (failed_frac %g)\n",
		r.Attempted, r.Failed, frac(r.Failed, r.Attempted))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-28s %14.6g %-9s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for _, m := range r.Metrics {
		doc.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
