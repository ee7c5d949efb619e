// Package report renders the experiment harness output: aligned text tables
// mirroring the paper's Tables 1-2 and the derived measurement tables.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends one row; missing cells render empty, extras are kept.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row of formatted values: strings pass through, float64
// are compacted with Fmt, ints printed plainly, everything else via %v.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = Fmt(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned text rendering to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	writeRow(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	fmt.Fprintln(w, strings.Repeat("-", total+2*(cols-1)))
	for _, r := range t.Rows {
		writeRow(r)
	}
}

// Fmt renders a float compactly: integers without decimals, infinities as
// "inf", otherwise up to four significant decimals.
func Fmt(x float64) string {
	switch {
	case math.IsInf(x, 1):
		return "inf"
	case math.IsInf(x, -1):
		return "-inf"
	case math.IsNaN(x):
		return "nan"
	//lint:allow floatcmp integrality test for formatting; tolerance would print 0.99999999 as 1
	case x == math.Trunc(x) && math.Abs(x) < 1e15:
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}
