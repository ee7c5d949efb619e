package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestFig1Reproduces asserts the Section 2 numbers reproduce exactly.
func TestFig1Reproduces(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"2.75", "46", "136", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("mismatch flagged:\n%s", out)
	}
}

// TestTable1Reproduces validates every Table 1 cell.
func TestTable1Reproduces(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, 11); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}

// TestTable2Reproduces validates every Table 2 cell.
func TestTable2Reproduces(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, 11); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}

func TestSimValidationExperiment(t *testing.T) {
	if err := SimValidation(io.Discard, 3, 30); err != nil {
		t.Fatal(err)
	}
}

func TestParetoExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Pareto(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "46") {
		t.Error("trade-off point missing from frontier output")
	}
}

func TestNPCExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := NPC(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}

// TestDiffExperiment runs a two-window differential corpus and checks the
// rendered report names the coverage and method tables.
func TestDiffExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Diff(&buf, 7, 72); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"DIFF", "variant combinations covered", "dispatch methods", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("mismatch flagged:\n%s", out)
	}
}

func TestScalingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep skipped in -short mode")
	}
	if err := Scaling(io.Discard, 5); err != nil {
		t.Fatal(err)
	}
}

// TestAllExperiments runs the full harness end to end, as cmd/pipebench
// does.
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness skipped in -short mode")
	}
	if err := All(io.Discard, 1); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionsExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Extensions(&buf, 9); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, want := range []string{"12/12", "processor sharing strictly helps"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
