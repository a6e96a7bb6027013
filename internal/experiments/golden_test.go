package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.json from this tree")

const goldenPath = "testdata/paper_golden.json"

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
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("%d ids in IDs(), want the paper's 18: %v", len(ids), ids)
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

// rowNamed returns the row of rep whose first cell is name.
func rowNamed(t *testing.T, rep Report, name string) int {
	t.Helper()
	for i, row := range rep.Rows {
		if row[0] == name {
			return i
		}
	}
	t.Fatalf("%s: no row %q", rep.ID, name)
	return -1
}

// TestPaperClaims checks the orderings and thresholds the paper's text
// asserts, read from the quick-mode reports the golden pins. The golden says
// the numbers did not move; this says what they must keep showing when a
// change moves them on purpose and re-records the golden.
func TestPaperClaims(t *testing.T) {
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
	// Adapter memory. The paper's "< 2 % of the EMTs" is a production-scale
	// figure: 10^8-row tables whose hot set is a sliver. The quick tables have
	// 300 rows, a large share of which one 200-sample window touches, so the
	// bound checked here is 10 %.
	overhead := -1.0
	for _, note := range t3.Notes {
		if _, tail, ok := strings.Cut(note, "adapter overhead "); ok {
			overhead, _ = cellNumber(strings.TrimSuffix(tail, " of EMT"))
		}
	}
	if !(overhead >= 0 && overhead < 10) {
		t.Errorf("table3: adapter overhead %.1f%% of EMT, want under 10%% (notes %q)", overhead, t3.Notes)
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

	// Isolation: the full system's tail is near-indistinguishable from
	// inference alone — within 20 µs (the column is in ms, and the whole
	// column sits under the 10 ms SLA) — below naive co-location's, and never
	// over the SLA.
	f16 := run(t, "fig16")
	p99 := func(config string) float64 { return parseF(t, cell(t, f16, rowNamed(t, f16, config), "P99(ms)")) }
	floor, naive, full := p99("Only Infer"), p99("w/o Opt"), p99("w/ Reuse+Scheduling")
	if !(math.Abs(full-floor) <= 0.020 && full < naive) {
		t.Errorf("fig16: w/ Reuse+Scheduling P99 %.3f ms, want within 0.020 ms of Only Infer %.3f and below w/o Opt %.3f", full, floor, naive)
	}
	if v := cell(t, f16, rowNamed(t, f16, "w/ Reuse+Scheduling"), "violation_rate"); parsePct(t, v) != 0 {
		t.Errorf("fig16: w/ Reuse+Scheduling violation rate %s, want 0.0%%", v)
	}

	// Reuse: the shadow table raises the trainer's L3 hit ratio.
	f11 := run(t, "fig11")
	trainHit := func(config string) float64 { return parsePct(t, cell(t, f11, rowNamed(t, f11, config), "train_hit")) }
	if reuse, naive := trainHit("w/ Reuse"), trainHit("w/o Opt"); !(reuse > naive) {
		t.Errorf("fig11: w/ Reuse train_hit %.3f must exceed w/o Opt %.3f", reuse, naive)
	}

	// Update cost: a LiveUpdate costs less than a QuickUpdate, which costs
	// less than a DeltaUpdate, at every dataset and interval.
	f14 := run(t, "fig14")
	for i := range f14.Rows {
		live := parseF(t, cell(t, f14, i, "LiveUpdate"))
		quick := parseF(t, cell(t, f14, i, "QuickUpdate"))
		delta := parseF(t, cell(t, f14, i, "DeltaUpdate"))
		if !(live < quick && quick < delta) {
			t.Errorf("fig14 row %d %v: want LiveUpdate < QuickUpdate < DeltaUpdate, got %v, %v, %v", i, f14.Rows[i][:2], live, quick, delta)
		}
	}
}
