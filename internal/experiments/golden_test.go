package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.json from this tree (tolerances are kept)")

const goldenPath = "testdata/paper_golden.json"

// goldenReport pins one experiment's quick-mode table (seed 7). Tol maps a
// column name, or "row label/column" for one cell, to the absolute tolerance
// its numeric cells are compared under (percent cells in points); cells with
// no entry, and non-numeric cells, must match exactly.
type goldenReport struct {
	Header []string           `json:"header"`
	Rows   [][]string         `json:"rows"`
	Tol    map[string]float64 `json:"tol"`
}

// cellNumber parses a table cell ("7", "30.9%", "+3.35", "0.5866").
func cellNumber(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	return v, err == nil
}

// TestPaperGolden keeps the figures that sit on the rank-adaptation kernels
// (fig6: gradient-PCA ranks via ComputePCA; table3/fig15/fig17: LiveUpdate
// with dynamic rank) from drifting while the code under them is refactored.
// The file was generated on the commit before the d×d-spectrum route landed;
// that commit's LiveUpdate cells varied from run to run (Resize drew random
// numbers in map order), which the wider tolerances on those cells cover.
func TestPaperGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]*goldenReport{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig6", "table3", "fig15", "fig17"} {
		rep := run(t, id)
		g := golden[id]
		if g == nil {
			t.Fatalf("%s: no golden entry", id)
		}
		if *updateGolden {
			g.Header, g.Rows = rep.Header, rep.Rows
			continue
		}
		if strings.Join(rep.Header, "|") != strings.Join(g.Header, "|") || len(rep.Rows) != len(g.Rows) {
			t.Fatalf("%s: table shape changed: header %v, %d rows; golden %v, %d rows",
				id, rep.Header, len(rep.Rows), g.Header, len(g.Rows))
		}
		for i, row := range rep.Rows {
			for j, got := range row {
				want, col := g.Rows[i][j], g.Header[j]
				tol, ok := g.Tol[row[0]+"/"+col]
				if !ok {
					tol = g.Tol[col]
				}
				gv, gok := cellNumber(got)
				wv, wok := cellNumber(want)
				if gok && wok && math.Abs(gv-wv) <= tol {
					continue
				}
				if got != want {
					t.Errorf("%s row %d (%s) column %q: %s, golden %s (tolerance %v)", id, i, row[0], col, got, want, tol)
				}
			}
		}
	}
	if *updateGolden {
		out, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPaperOrderings pins the orderings the paper's accuracy and memory
// claims rest on, which a per-cell tolerance alone would let slide.
func TestPaperOrderings(t *testing.T) {
	t3 := run(t, "table3")
	gain := map[string]float64{}
	for _, row := range t3.Rows {
		gain[row[0]], _ = cellNumber(row[1]) // "0 (baseline)" parses to 0, false
	}
	order := []string{"NoUpdate", "DeltaUpdate", "LiveUpdate-8 (fixed)", "LiveUpdate-16 (fixed)", "LiveUpdate (dynamic)"}
	for i := 1; i < len(order); i++ {
		if !(gain[order[i]] > gain[order[i-1]]) {
			t.Errorf("table3: %s (%+.2f) must beat %s (%+.2f)", order[i], gain[order[i]], order[i-1], gain[order[i-1]])
		}
	}

	f15 := run(t, "fig15")
	var delta, live float64
	for i := range f15.Rows {
		delta += parseF(t, cell(t, f15, i, "DeltaUpdate"))
		live += parseF(t, cell(t, f15, i, "LiveUpdate"))
	}
	if live <= delta {
		t.Errorf("fig15: mean LiveUpdate AUC %.4f must exceed DeltaUpdate %.4f", live/float64(len(f15.Rows)), delta/float64(len(f15.Rows)))
	}

	f17 := run(t, "fig17")
	for i := range f17.Rows {
		fixed := parseF(t, cell(t, f17, i, "fixed-16(B)"))
		dyn := parseF(t, cell(t, f17, i, "dyn-rank(B)"))
		pruned := parseF(t, cell(t, f17, i, "dyn+prune(B)"))
		if !(pruned < dyn && dyn < fixed) {
			t.Errorf("fig17 row %d: want dyn+prune < dyn-rank < fixed-16, got %v, %v, %v", i, pruned, dyn, fixed)
		}
	}
}
