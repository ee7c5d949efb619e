// Package chaos is the deterministic fault-injection layer of the
// resilience stack: seeded generation of fault events (processor failure,
// DVFS mode drop, stage-weight drift, transient slowdown), application of
// an event to a pipeline.Instance with re-validation of the mutated
// instance, and replay of whole event schedules. Everything is a pure
// function of its inputs — Generate(seed, inst, n) returns a bit-identical
// Schedule on every call, and Apply never reads a clock or a global random
// source — so a production incident reduced to a (seed, index) pair replays
// exactly under test. The package is covered by the pipelint determinism
// analyzer.
//
// The re-solve half of the stack (new mapping after a fault, migration
// diff, replica promotion) lives in resolve.go.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/pipeline"
)

// Kind enumerates the fault classes the generator can draw. They mirror
// how real platforms churn: nodes die (ProcFail), thermal or power
// management withdraws the fastest DVFS state (ModeDrop), workload
// characteristics drift over time (WeightDrift), and co-located load
// transiently slows a node without removing it (Slowdown).
type Kind int

const (
	// ProcFail removes a processor and all its links. Inapplicable on a
	// single-processor platform (the mutated platform must stay valid).
	ProcFail Kind = iota
	// ModeDrop removes a processor's fastest DVFS mode. Inapplicable on a
	// uni-modal processor.
	ModeDrop
	// WeightDrift scales one stage's computation requirement by Factor.
	WeightDrift
	// Slowdown scales every mode of one processor by Factor in (0, 1].
	Slowdown
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ProcFail:
		return "proc-fail"
	case ModeDrop:
		return "mode-drop"
	case WeightDrift:
		return "weight-drift"
	case Slowdown:
		return "slowdown"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is the inverse of String, shared by the /v1/resolve endpoint.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "proc-fail":
		return ProcFail, nil
	case "mode-drop":
		return ModeDrop, nil
	case "weight-drift":
		return WeightDrift, nil
	case "slowdown":
		return Slowdown, nil
	}
	return 0, fmt.Errorf("chaos: unknown event kind %q (want proc-fail | mode-drop | weight-drift | slowdown)", s)
}

// Event is one fault. Which fields are meaningful depends on Kind: Proc for
// ProcFail, ModeDrop and Slowdown; App, Stage and Factor for WeightDrift;
// Factor additionally for Slowdown. Indices refer to the instance the
// event is applied to — after a ProcFail, later events in the same schedule
// use the shrunken processor indexing.
type Event struct {
	Kind   Kind
	Proc   int
	App    int
	Stage  int
	Factor float64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case ProcFail:
		return fmt.Sprintf("proc-fail(P%d)", e.Proc)
	case ModeDrop:
		return fmt.Sprintf("mode-drop(P%d)", e.Proc)
	case WeightDrift:
		return fmt.Sprintf("weight-drift(app %d stage %d x%.3f)", e.App, e.Stage, e.Factor)
	case Slowdown:
		return fmt.Sprintf("slowdown(P%d x%.3f)", e.Proc, e.Factor)
	}
	return fmt.Sprintf("event(%v)", e.Kind)
}

// Schedule is a replayable fault stream: the seed it was generated from
// and the events in injection order. Equal seeds over equal instances
// yield bit-identical schedules.
type Schedule struct {
	Seed   int64
	Events []Event
}

// ErrInapplicable reports an event that cannot be applied to the given
// instance — failing the last processor, dropping a mode of a uni-modal
// processor, or indices out of range. It is a classification, not a crash:
// injectors skip inapplicable events and report them.
var ErrInapplicable = errors.New("chaos: event not applicable to this instance")

// IsInapplicable reports whether err classifies as an inapplicable event
// (convenience for errors.Is(err, ErrInapplicable)).
func IsInapplicable(err error) bool { return errors.Is(err, ErrInapplicable) }

// Applied is the outcome of one event: the mutated (and re-validated)
// instance plus the processor index translation the mutation induced.
type Applied struct {
	// Event is the event that produced this state.
	Event Event
	// Inst is the mutated instance. It is a deep copy; the input instance
	// is never written.
	Inst pipeline.Instance
	// ProcMap[u] is the index, in the pre-event instance, of the
	// post-event processor u. It is the identity except after ProcFail,
	// which compacts the indices above the failed processor down by one.
	ProcMap []int
}

// Apply executes one fault event against inst and returns the mutated
// instance, re-validated. inst itself is never modified. Events that the
// instance cannot absorb return ErrInapplicable; a mutation that produces
// an instance failing pipeline validation (impossible by construction for
// the event kinds above, but checked anyway — "graceful degradation, never
// silent") is reported as a wrapped validation error.
func Apply(inst *pipeline.Instance, ev Event) (Applied, error) {
	out := Applied{Event: ev, Inst: inst.Clone()}
	p := out.Inst.Platform.NumProcessors()
	out.ProcMap = make([]int, 0, p)
	for u := 0; u < p; u++ {
		out.ProcMap = append(out.ProcMap, u)
	}
	switch ev.Kind {
	case ProcFail:
		if ev.Proc < 0 || ev.Proc >= p {
			return Applied{}, fmt.Errorf("%w: no processor %d to fail (platform has %d)", ErrInapplicable, ev.Proc, p)
		}
		if p == 1 {
			return Applied{}, fmt.Errorf("%w: cannot fail the last processor", ErrInapplicable)
		}
		removeProcessor(&out.Inst.Platform, ev.Proc)
		out.ProcMap = append(out.ProcMap[:ev.Proc], out.ProcMap[ev.Proc+1:]...)
	case ModeDrop:
		if ev.Proc < 0 || ev.Proc >= p {
			return Applied{}, fmt.Errorf("%w: no processor %d (platform has %d)", ErrInapplicable, ev.Proc, p)
		}
		proc := &out.Inst.Platform.Processors[ev.Proc]
		if proc.NumModes() < 2 {
			return Applied{}, fmt.Errorf("%w: processor %d is uni-modal, cannot drop its only mode", ErrInapplicable, ev.Proc)
		}
		// Speeds are sorted ascending; the withdrawn DVFS state is the
		// fastest one.
		proc.Speeds = proc.Speeds[:len(proc.Speeds)-1]
	case WeightDrift:
		if ev.App < 0 || ev.App >= len(out.Inst.Apps) {
			return Applied{}, fmt.Errorf("%w: no application %d", ErrInapplicable, ev.App)
		}
		app := &out.Inst.Apps[ev.App]
		if ev.Stage < 0 || ev.Stage >= app.NumStages() {
			return Applied{}, fmt.Errorf("%w: application %d has no stage %d", ErrInapplicable, ev.App, ev.Stage)
		}
		if ev.Factor <= 0 {
			return Applied{}, fmt.Errorf("%w: weight-drift factor %g must be positive", ErrInapplicable, ev.Factor)
		}
		app.Stages[ev.Stage].Work *= ev.Factor
	case Slowdown:
		if ev.Proc < 0 || ev.Proc >= p {
			return Applied{}, fmt.Errorf("%w: no processor %d (platform has %d)", ErrInapplicable, ev.Proc, p)
		}
		if ev.Factor <= 0 || ev.Factor > 1 {
			return Applied{}, fmt.Errorf("%w: slowdown factor %g must be in (0, 1]", ErrInapplicable, ev.Factor)
		}
		speeds := out.Inst.Platform.Processors[ev.Proc].Speeds
		for i := range speeds {
			speeds[i] *= ev.Factor
		}
	default:
		return Applied{}, fmt.Errorf("%w: unknown event kind %v", ErrInapplicable, ev.Kind)
	}
	if err := out.Inst.Validate(); err != nil {
		return Applied{}, fmt.Errorf("chaos: %v left the instance invalid: %w", ev, err)
	}
	return out, nil
}

// removeProcessor deletes processor u from the platform: its row and
// column of the interconnect and its column of every application's virtual
// in/out links.
func removeProcessor(pl *pipeline.Platform, u int) {
	pl.Processors = append(pl.Processors[:u], pl.Processors[u+1:]...)
	pl.Bandwidth = append(pl.Bandwidth[:u], pl.Bandwidth[u+1:]...)
	for i := range pl.Bandwidth {
		pl.Bandwidth[i] = append(pl.Bandwidth[i][:u], pl.Bandwidth[i][u+1:]...)
	}
	for a := range pl.InBandwidth {
		pl.InBandwidth[a] = append(pl.InBandwidth[a][:u], pl.InBandwidth[a][u+1:]...)
	}
	for a := range pl.OutBandwidth {
		pl.OutBandwidth[a] = append(pl.OutBandwidth[a][:u], pl.OutBandwidth[a][u+1:]...)
	}
}

// Inject replays a fault stream against inst: each event is applied to the
// previous event's output (inst itself is never modified) and every
// intermediate instance is re-validated by Apply. The returned slice holds
// one Applied per event, with each ProcMap rewritten to translate that
// step's processor indices all the way back to the ORIGINAL instance, so
// callers can diff any intermediate state against the pre-fault mapping.
// An inapplicable or invalid event aborts the replay with the steps that
// did apply.
func Inject(inst *pipeline.Instance, events []Event) ([]Applied, error) {
	steps := make([]Applied, 0, len(events))
	cur := inst
	var toOriginal []int
	for i, ev := range events {
		ap, err := Apply(cur, ev)
		if err != nil {
			return steps, fmt.Errorf("chaos: event %d (%v): %w", i, ev, err)
		}
		if toOriginal == nil {
			toOriginal = ap.ProcMap
		} else {
			composed := make([]int, len(ap.ProcMap))
			for u, mid := range ap.ProcMap {
				composed[u] = toOriginal[mid]
			}
			toOriginal = composed
		}
		ap.ProcMap = append([]int(nil), toOriginal...)
		steps = append(steps, ap)
		cur = &steps[len(steps)-1].Inst
	}
	return steps, nil
}

// Generate draws a schedule of n events from the seed, simulating the
// stream against a private clone of inst so every drawn event is
// applicable at its position (a processor failed by event i is never
// targeted by event i+1). The result is a pure function of (seed, inst,
// n): no clock, no global random state.
func Generate(seed int64, inst *pipeline.Instance, n int) (Schedule, error) {
	if err := inst.Validate(); err != nil {
		return Schedule{}, fmt.Errorf("chaos: generate: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed, Events: make([]Event, 0, n)}
	cur := inst.Clone()
	for i := 0; i < n; i++ {
		ev := draw(rng, &cur)
		ap, err := Apply(&cur, ev)
		if err != nil {
			// draw only proposes applicable events, so this is a bug in
			// the generator, not a property of the seed.
			return Schedule{}, fmt.Errorf("chaos: generated event %d unexpectedly rejected: %w", i, err)
		}
		sched.Events = append(sched.Events, ev)
		cur = ap.Inst
	}
	return sched, nil
}

// draw proposes one event applicable to cur. Destructive kinds are
// retried a few times if the platform cannot absorb them (last processor,
// uni-modal target); WeightDrift is always applicable, so the draw never
// starves.
func draw(rng *rand.Rand, cur *pipeline.Instance) Event {
	for attempt := 0; attempt < 8; attempt++ {
		p := cur.Platform.NumProcessors()
		switch Kind(rng.Intn(4)) {
		case ProcFail:
			if p < 2 {
				continue
			}
			return Event{Kind: ProcFail, Proc: rng.Intn(p)}
		case ModeDrop:
			u := rng.Intn(p)
			if cur.Platform.Processors[u].NumModes() < 2 {
				continue
			}
			return Event{Kind: ModeDrop, Proc: u}
		case WeightDrift:
			return driftEvent(rng, cur)
		case Slowdown:
			// Factor in [0.3, 0.9]: a real slowdown, never a full stop.
			return Event{Kind: Slowdown, Proc: rng.Intn(p), Factor: 0.3 + 0.6*rng.Float64()}
		}
	}
	return driftEvent(rng, cur)
}

// driftEvent scales a uniformly drawn stage's work by a factor in
// [0.5, 2.0].
func driftEvent(rng *rand.Rand, cur *pipeline.Instance) Event {
	a := rng.Intn(len(cur.Apps))
	return Event{
		Kind:   WeightDrift,
		App:    a,
		Stage:  rng.Intn(cur.Apps[a].NumStages()),
		Factor: 0.5 + 1.5*rng.Float64(),
	}
}
