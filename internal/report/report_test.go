package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("beta-longer", "22")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	// The value column starts at the same offset on every data row.
	h := strings.Index(lines[1], "value")
	r1 := strings.Index(lines[3], "1")
	r2 := strings.Index(lines[4], "22")
	if h < 0 || r1 != h || r2 != h {
		t.Errorf("columns not aligned: header@%d row1@%d row2@%d\n%s", h, r1, r2, out)
	}
}

func TestAddf(t *testing.T) {
	tb := New("", "a", "b", "c", "d")
	tb.Addf("s", 1.5, 7, int64(9))
	if tb.Rows[0][0] != "s" || tb.Rows[0][1] != "1.5" || tb.Rows[0][2] != "7" || tb.Rows[0][3] != "9" {
		t.Errorf("Addf row = %v", tb.Rows[0])
	}
}

func TestFmt(t *testing.T) {
	cases := []struct {
		x    float64
		want string
	}{
		{1, "1"},
		{1.5, "1.5"},
		{2.75, "2.75"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{math.NaN(), "nan"},
		{1234567, "1234567"},
		{1.0 / 3.0, "0.3333"},
	}
	for _, c := range cases {
		if got := Fmt(c.x); got != c.want {
			t.Errorf("Fmt(%g) = %q, want %q", c.x, got, c.want)
		}
	}
}

func TestRenderUntitledAndRagged(t *testing.T) {
	tb := New("", "a")
	tb.Add("1", "extra")
	var buf bytes.Buffer
	tb.Render(&buf)
	if strings.Contains(buf.String(), "==") {
		t.Error("unexpected title banner")
	}
	if !strings.Contains(buf.String(), "extra") {
		t.Error("extra cell dropped")
	}
}
