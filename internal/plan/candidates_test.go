package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// paretoCandidatesDigest is the SHA-256 of ParetoCandidates over
// pinnedCandidatePlans. It was recorded by the build that enumerated each
// rule's weighted cycle times inline in the plan, before the plan shared
// one per-application cycle-time set between its Pareto candidates and
// its bound classes.
const paretoCandidatesDigest = "8e0c8b1fa98b6b656187756cc8fff9783ba9d651ba04ed826e20996a9f5d98cb"

// pinnedCandidatePlans compiles a fixed seeded set of plans: fully
// homogeneous interval instances and communication homogeneous one-to-one
// instances (the classes where the candidate set is exact), plus a few of
// each rule on the other classes, under both communication models, with
// application weights and a non-integer bandwidth so the products are not
// all small integers.
func pinnedCandidatePlans(t *testing.T) []*Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(2302))
	classes := []pipeline.Class{pipeline.FullyHomogeneous, pipeline.CommHomogeneous, pipeline.FullyHeterogeneous}
	var plans []*Plan
	for i := 0; i < 24; i++ {
		cls := classes[i%3]
		rule := mapping.Interval
		if i%2 == 1 {
			rule = mapping.OneToOne
		}
		apps := 1 + i%3
		per := 2 + rng.Intn(6)
		inst := workload.MustInstance(rng, workload.Config{
			Apps: apps, MinStages: per, MaxStages: per, Procs: apps*per + 1, Modes: 1 + i%4,
			Class: cls, MaxWork: 9, MaxData: 5, MaxSpeed: 8, MaxBandwidth: 4, Bandwidth: 1.5,
		})
		for a := range inst.Apps {
			inst.Apps[a].Weight = 0.5 + rng.Float64()
		}
		for _, model := range []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap} {
			pl, err := Compile(&inst, rule, model)
			if err != nil {
				t.Fatalf("plan %d: %v", i, err)
			}
			plans = append(plans, pl)
		}
	}
	return plans
}

// TestParetoCandidatesPinned hashes the candidate sets of the pinned plans
// (their lengths and every value's bits) and compares the digest with the
// one recorded before the plan enumerated cycle times once per
// application.
func TestParetoCandidatesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	h := sha256.New()
	var buf [8]byte
	for _, pl := range pinnedCandidatePlans(t) {
		cands := pl.ParetoCandidates()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(cands)))
		h.Write(buf[:])
		for _, x := range cands {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paretoCandidatesDigest {
		t.Fatalf("ParetoCandidates digest = %s, want %s", got, paretoCandidatesDigest)
	}
}
