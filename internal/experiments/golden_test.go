package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.json from this tree")

const goldenPath = "testdata/paper_golden.json"

// paperIDs returns the experiments that regenerate the paper's own tables
// and figures; the serving-stack ids are not pinned.
func paperIDs() []string {
	var ids []string
	for _, id := range IDs() {
		if strings.HasPrefix(id, "fig") || strings.HasPrefix(id, "table") {
			ids = append(ids, id)
		}
	}
	return ids
}

// goldenReport pins one experiment's quick-mode table (seed 7).
type goldenReport struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// cellNumber parses a table cell ("7", "30.9%", "+3.35", "0.5866").
func cellNumber(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	return v, err == nil
}

// TestPaperGolden keeps every paper table and figure from drifting while the
// code under it is refactored: each cell of each of the 18 quick-mode
// reports (seed 7) must match the recorded golden exactly. The reports are
// a deterministic function of the seed, so there is no tolerance; a change
// that moves a cell on purpose re-records with -update and says why.
func TestPaperGolden(t *testing.T) {
	golden := map[string]*goldenReport{} // -update re-records every entry
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	ids := paperIDs()
	if len(ids) != 18 {
		t.Fatalf("%d paper ids in IDs(), want the paper's 18: %v", len(ids), ids)
	}
	for _, id := range ids {
		rep := run(t, id)
		if *updateGolden {
			golden[id] = &goldenReport{Header: rep.Header, Rows: rep.Rows}
			continue
		}
		g := golden[id]
		if g == nil {
			t.Errorf("%s: no golden entry", id)
			continue
		}
		if !slices.Equal(rep.Header, g.Header) || len(rep.Rows) != len(g.Rows) {
			t.Errorf("%s: table shape changed: header %v, %d rows; golden %v, %d rows",
				id, rep.Header, len(rep.Rows), g.Header, len(g.Rows))
			continue
		}
		for i, row := range rep.Rows {
			if !slices.Equal(row, g.Rows[i]) {
				t.Errorf("%s row %d: %q, golden %q", id, i, row, g.Rows[i])
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
