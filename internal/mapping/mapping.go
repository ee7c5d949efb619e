// Package mapping defines one-to-one and interval mappings of concurrent
// pipelined applications onto processors (Section 3.3) and the analytic
// evaluation of their period, latency and energy (Sections 3.4-3.5,
// Equations 3-6).
package mapping

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pipeline"
)

// Rule selects the mapping strategy.
type Rule int

const (
	// OneToOne: each application stage is allocated to a distinct
	// processor.
	OneToOne Rule = iota
	// Interval: each participating processor is assigned an interval of
	// consecutive stages of a single application. One-to-one mappings are
	// a special case.
	Interval
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case OneToOne:
		return "one-to-one"
	case Interval:
		return "interval"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// ParseRule is the inverse of String, shared by the cmd/ tools.
func ParseRule(s string) (Rule, error) {
	switch s {
	case "one-to-one":
		return OneToOne, nil
	case "interval":
		return Interval, nil
	}
	return 0, fmt.Errorf("unknown rule %q (want one-to-one | interval)", s)
}

// PlacedInterval assigns the stages From..To (inclusive, 0-based) of one
// application to a processor running in a fixed mode.
type PlacedInterval struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Proc is the processor index in the platform.
	Proc int `json:"proc"`
	// Mode indexes into the processor's Speeds slice; the chosen speed is
	// fixed for the whole execution (Section 3.2).
	Mode int `json:"mode"`
}

// Len returns the number of stages in the interval.
func (iv PlacedInterval) Len() int { return iv.To - iv.From + 1 }

// AppMapping is the ordered interval decomposition of one application.
type AppMapping struct {
	Intervals []PlacedInterval `json:"intervals"`
}

// Mapping maps every application of an instance. Processors may not be
// shared across intervals, whether of the same or of different applications
// (Section 3.3).
type Mapping struct {
	Apps []AppMapping `json:"apps"`
}

// Clone returns a deep copy.
func (m *Mapping) Clone() Mapping {
	var c Mapping
	c.CopyFrom(m)
	return c
}

// CopyFrom overwrites m with a deep copy of src, reusing m's buffers where
// their capacity allows, so a caller that copies into the same mapping
// repeatedly stops allocating once the buffers have grown. m and src must
// not share interval buffers.
func (m *Mapping) CopyFrom(src *Mapping) {
	if cap(m.Apps) < len(src.Apps) {
		m.Apps = make([]AppMapping, len(src.Apps))
	}
	m.Apps = m.Apps[:len(src.Apps)]
	for i := range src.Apps {
		m.Apps[i].Intervals = append(m.Apps[i].Intervals[:0], src.Apps[i].Intervals...)
	}
}

// UsedProcessors returns the sorted list of enrolled processor indices.
func (m *Mapping) UsedProcessors() []int {
	var out []int
	for a := range m.Apps {
		for _, iv := range m.Apps[a].Intervals {
			out = append(out, iv.Proc)
		}
	}
	sort.Ints(out)
	return out
}

// NumIntervals returns the total number of placed intervals (= enrolled
// processors, since sharing is forbidden).
func (m *Mapping) NumIntervals() int {
	n := 0
	for a := range m.Apps {
		n += len(m.Apps[a].Intervals)
	}
	return n
}

// String renders a compact human-readable description.
func (m *Mapping) String() string {
	var sb strings.Builder
	for a := range m.Apps {
		if a > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(&sb, "app%d:", a)
		for j, iv := range m.Apps[a].Intervals {
			if j > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " [%d-%d]->P%d/m%d", iv.From, iv.To, iv.Proc, iv.Mode)
		}
	}
	return sb.String()
}

// Validate checks that m is a legal mapping of inst under the given rule:
// the intervals of each application partition its stages in order, no
// processor is reused, modes are valid, and under OneToOne every interval
// has length 1.
func (m *Mapping) Validate(inst *pipeline.Instance, rule Rule) error {
	if len(m.Apps) != len(inst.Apps) {
		return fmt.Errorf("mapping: covers %d applications, instance has %d", len(m.Apps), len(inst.Apps))
	}
	used := make(map[int]bool)
	for a := range m.Apps {
		ivs := m.Apps[a].Intervals
		n := inst.Apps[a].NumStages()
		if len(ivs) == 0 {
			return fmt.Errorf("mapping: application %d has no intervals", a)
		}
		next := 0
		for j, iv := range ivs {
			if iv.From != next {
				return fmt.Errorf("mapping: application %d interval %d starts at %d, want %d", a, j, iv.From, next)
			}
			if iv.To < iv.From || iv.To >= n {
				return fmt.Errorf("mapping: application %d interval %d range [%d,%d] invalid for %d stages", a, j, iv.From, iv.To, n)
			}
			if rule == OneToOne && iv.Len() != 1 {
				return fmt.Errorf("mapping: application %d interval %d has %d stages; one-to-one requires 1", a, j, iv.Len())
			}
			if iv.Proc < 0 || iv.Proc >= inst.Platform.NumProcessors() {
				return fmt.Errorf("mapping: application %d interval %d uses unknown processor %d", a, j, iv.Proc)
			}
			if used[iv.Proc] {
				return fmt.Errorf("mapping: processor %d assigned twice (no sharing allowed)", iv.Proc)
			}
			used[iv.Proc] = true
			if iv.Mode < 0 || iv.Mode >= inst.Platform.Processors[iv.Proc].NumModes() {
				return fmt.Errorf("mapping: application %d interval %d uses invalid mode %d on processor %d", a, j, iv.Mode, iv.Proc)
			}
			next = iv.To + 1
		}
		if next != n {
			return fmt.Errorf("mapping: application %d intervals cover %d stages, want %d", a, next, n)
		}
	}
	return nil
}

// WholeApp maps application a entirely onto one processor/mode.
func WholeApp(inst *pipeline.Instance, a, proc, mode int) AppMapping {
	return AppMapping{Intervals: []PlacedInterval{{From: 0, To: inst.Apps[a].NumStages() - 1, Proc: proc, Mode: mode}}}
}
