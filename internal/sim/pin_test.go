package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// simulatorPinDigest is the SHA-256 of every value TestSimulatorAnswersPinned
// hashes, recorded from the simulator that kept separate plain, traced and
// replicated recurrences. Any change to the ASAP arithmetic, the default
// data-set counts or the trace's resource names changes it.
const simulatorPinDigest = "28a6074169fb66c8910d0261a251173177553c97509b41d74745adf1881b113a"

// pinOptions are the runs hashed per mapping: the saturated default, a
// short run with releases faster than most periods, and a spaced run where
// every data set meets an empty pipeline.
var pinOptions = []Options{{}, {Datasets: 37, ReleaseInterval: 0.75}, {Datasets: 5, ReleaseInterval: 1e6}}

// TestSimulatorAnswersPinned hashes the bits of every departure, first
// latency, steady period and maximum latency of Simulate and
// SimulateReplicated, and of every TraceRun operation, over seeded random
// mappings of all three platform classes under both communication models.
// The arithmetic is plain IEEE addition, division and max, but arm64 may
// fuse t*release into a neighbouring addition, so the digest is amd64 only.
func TestSimulatorAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(2001))
	classes := []pipeline.Class{pipeline.FullyHomogeneous, pipeline.CommHomogeneous, pipeline.FullyHeterogeneous}
	models := []pipeline.CommModel{pipeline.Overlap, pipeline.NoOverlap}
	h := sha256.New()
	runs, ops := 0, 0
	for trial := 0; trial < 150; trial++ {
		cfg := workload.Config{
			Apps: 1 + rng.Intn(3), MinStages: 1, MaxStages: 6,
			Procs: 6 + rng.Intn(6), Modes: 1 + rng.Intn(3),
			Class:   classes[trial%len(classes)],
			MaxWork: 9, MaxData: 6, MaxSpeed: 7, MaxBandwidth: 4,
		}
		inst := workload.MustInstance(rng, cfg)
		m, err := workload.RandomMapping(rng, &inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rm, err := workload.RandomReplicated(rng, &inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, model := range models {
			for _, opt := range pinOptions {
				plain, err := Simulate(&inst, &m, model, opt)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				replicated, err := SimulateReplicated(&inst, &rm, model, opt)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for _, rs := range [][]Result{plain, replicated} {
					for _, r := range rs {
						hashResult(h, r)
						runs++
					}
				}
			}
			for a := range inst.Apps {
				tr, err := TraceRun(&inst, &m, a, model, 12)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				hashTrace(h, tr)
				ops += len(tr.Ops)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simulatorPinDigest {
		t.Errorf("digest of %d application runs and %d traced operations = %s, want %s", runs, ops, got, simulatorPinDigest)
	}
}

func writeFloat(h hash.Hash, f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	h.Write(buf[:])
}

func writeInt(h hash.Hash, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
}

func hashResult(h hash.Hash, r Result) {
	writeInt(h, len(r.Departures))
	for _, d := range r.Departures {
		writeFloat(h, d)
	}
	writeFloat(h, r.FirstLatency)
	writeFloat(h, r.SteadyPeriod)
	writeFloat(h, r.MaxLatency)
}

func hashTrace(h hash.Hash, tr Trace) {
	writeInt(h, len(tr.Ops))
	for _, op := range tr.Ops {
		writeInt(h, int(op.Kind))
		writeInt(h, op.Node)
		writeInt(h, op.Dataset)
		writeInt(h, len(op.Resources))
		for _, r := range op.Resources {
			h.Write([]byte(r))
			h.Write([]byte{0})
		}
		writeFloat(h, op.Start)
		writeFloat(h, op.End)
	}
}
