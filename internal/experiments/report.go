// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): each experiment id (table2, fig3a … fig19, table3) has a runner
// that produces a Report with the same rows/series the paper plots. Runners
// come in two modes: Quick (seconds; used by tests and benchmarks) and full
// (used by cmd/liveupdate-bench).
package experiments

import (
	"fmt"
	"strings"
)

// Report is a printable experiment result: a titled table plus notes
// comparing against the paper's reported shape.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options configures a runner invocation.
type Options struct {
	Seed  uint64
	Quick bool // reduced sample counts for tests/benchmarks
}

// Runner executes one experiment.
type Runner func(Options) (Report, error)

// paper is the suite: the paper's 18 tables and figures, in presentation
// order. IDs and Lookup both read it.
var paper = []struct {
	ID  string
	Run Runner
}{
	{"table2", Table2},
	{"fig3a", Fig3a},
	{"fig3b", Fig3b},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig14", Fig14},
	{"table3", Table3},
	{"fig15", Fig15},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"fig18", Fig18},
	{"fig19", Fig19},
}

// IDs returns experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, len(paper))
	for i, e := range paper {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the runner for id.
func Lookup(id string) (Runner, bool) {
	for _, e := range paper {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
