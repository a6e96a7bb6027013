package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Seed: 7, Quick: true} }

// run executes a registered runner and sanity-checks report structure.
func run(t *testing.T, id string) Report {
	t.Helper()
	runner, ok := Registry()[id]
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := runner(quickOpts())
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report id %q != %q", rep.ID, id)
	}
	if len(rep.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s row width %d != header %d", id, len(row), len(rep.Header))
		}
	}
	if !strings.Contains(rep.String(), rep.Title) {
		t.Fatalf("%s String() missing title", id)
	}
	return rep
}

func cell(t *testing.T, rep Report, row int, col string) string {
	t.Helper()
	for i, h := range rep.Header {
		if h == col {
			return rep.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, rep.Header)
	return ""
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v / 100
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestRegistryCoversAllIDs(t *testing.T) {
	reg := Registry()
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Fatalf("id %q missing from registry", id)
		}
	}
	if len(reg) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs lists %d", len(reg), len(IDs()))
	}
}

func TestTable2(t *testing.T) {
	rep := run(t, "table2")
	if len(rep.Rows) != 5 {
		t.Fatalf("table2 rows %d, want 5 datasets", len(rep.Rows))
	}
}

func TestFig3aUpdateRatioShape(t *testing.T) {
	rep := run(t, "fig3a")
	r10 := parsePct(t, cell(t, rep, 0, "update_ratio"))
	r30 := parsePct(t, cell(t, rep, 1, "update_ratio"))
	r60 := parsePct(t, cell(t, rep, 2, "update_ratio"))
	if !(r10 < r30 && r30 < r60) {
		t.Fatalf("ratios not monotone: %v %v %v", r10, r30, r60)
	}
	if r10 < 0.03 {
		t.Fatalf("10-min ratio %v implausibly low", r10)
	}
}

func TestFig3bRecovery(t *testing.T) {
	rep := run(t, "fig3b")
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "recovery") && strings.Contains(n, "+") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig3b should report positive AUC recovery after updates: %v", rep.Notes)
	}
}

func TestFig4DiurnalPeak(t *testing.T) {
	rep := run(t, "fig4")
	if len(rep.Rows) != 24 {
		t.Fatalf("fig4 rows %d", len(rep.Rows))
	}
	peak := 0.0
	for i := range rep.Rows {
		if u := parsePct(t, cell(t, rep, i, "cpu_util")); u > peak {
			peak = u
		}
	}
	if peak > 0.201 || peak < 0.15 {
		t.Fatalf("peak util %v, want ~20%%", peak)
	}
}

func TestFig5PowerOverhead(t *testing.T) {
	rep := run(t, "fig5")
	for i := range rep.Rows {
		ov := parsePct(t, cell(t, rep, i, "overhead"))
		if ov < 0.05 || ov > 0.5 {
			t.Fatalf("power overhead %v outside band", ov)
		}
	}
}

func TestFig6LowRank(t *testing.T) {
	rep := run(t, "fig6")
	for i := range rep.Rows {
		k := parseF(t, cell(t, rep, i, "k80"))
		if k < 1 || k > 16 {
			t.Fatalf("k80 %v out of range", k)
		}
	}
}

func TestFig8VersionCounts(t *testing.T) {
	rep := run(t, "fig8")
	var counts []float64
	for i := range rep.Rows {
		counts = append(counts, parseF(t, cell(t, rep, i, "versions/h")))
	}
	// Rows: Delta, Quick, Live — Live must lead.
	if !(counts[2] > counts[1] && counts[1] >= counts[0]) {
		t.Fatalf("version counts %v: LiveUpdate must version most often", counts)
	}
}

func TestFig9GapGrowsWithInterval(t *testing.T) {
	rep := run(t, "fig9")
	first := parseF(t, cell(t, rep, 0, "meanAUC"))
	last := parseF(t, cell(t, rep, len(rep.Rows)-1, "meanAUC"))
	if last > first+0.005 {
		t.Fatalf("longest interval should not beat tightest: %v vs %v", last, first)
	}
}

func TestFig10NotSaturated(t *testing.T) {
	rep := run(t, "fig10")
	for i := range rep.Rows {
		u := parsePct(t, cell(t, rep, i, "dram_util"))
		if u > 1 {
			t.Fatalf("utilization %v over 100%%", u)
		}
	}
}

func TestFig11OptimizationsRaiseHitRatios(t *testing.T) {
	rep := run(t, "fig11")
	get := func(config, col string) float64 {
		for i := range rep.Rows {
			if rep.Rows[i][0] == config {
				return parsePct(t, cell(t, rep, i, col))
			}
		}
		t.Fatalf("config %q missing", config)
		return 0
	}
	if get("w/ Reuse+Scheduling", "train_hit") <= get("w/o Opt", "train_hit") {
		t.Fatal("reuse+scheduling must raise training hit ratio (Fig 11a)")
	}
	if get("w/ Reuse+Scheduling", "infer_hit") <= get("w/o Opt", "infer_hit") {
		t.Fatal("reuse+scheduling must raise inference hit ratio (Fig 11b)")
	}
}

func TestFig12AccessSkew(t *testing.T) {
	rep := run(t, "fig12")
	// Row 2 is top 10%.
	share := parsePct(t, cell(t, rep, 2, "access_share"))
	if share < 0.55 {
		t.Fatalf("top-10%% share %v too low (paper: 93.8%%)", share)
	}
	// Monotone in fraction.
	prev := 0.0
	for i := range rep.Rows {
		s := parsePct(t, cell(t, rep, i, "access_share"))
		if s < prev {
			t.Fatal("CDF must be monotone")
		}
		prev = s
	}
}

func TestFig14CostShape(t *testing.T) {
	rep := run(t, "fig14")
	if len(rep.Rows) != 9 {
		t.Fatalf("fig14 rows %d, want 3 datasets × 3 intervals", len(rep.Rows))
	}
	// The Live < Quick < Delta order is one of TestPaperClaims' claims.
	for i := range rep.Rows {
		if parseF(t, cell(t, rep, i, "NoUpdate")) != 0 {
			t.Fatal("NoUpdate must cost 0")
		}
	}
}

func TestTable3LiveUpdateWins(t *testing.T) {
	rep := run(t, "table3")
	get := func(strategy string) float64 {
		for i := range rep.Rows {
			if rep.Rows[i][0] == strategy {
				v := rep.Rows[i][1]
				if strings.Contains(v, "baseline") {
					return 0
				}
				return parseF(t, v)
			}
		}
		t.Fatalf("strategy %q missing", strategy)
		return 0
	}
	no := get("NoUpdate")
	live := get("LiveUpdate (dynamic)")
	if no >= 0 {
		t.Fatalf("NoUpdate should trail the baseline, got %+v", no)
	}
	if live <= no {
		t.Fatalf("LiveUpdate (%v) must beat NoUpdate (%v)", live, no)
	}
}

func TestFig15SeriesComplete(t *testing.T) {
	rep := run(t, "fig15")
	for i := range rep.Rows {
		for _, col := range []string{"DeltaUpdate", "QuickUpdate", "LiveUpdate"} {
			v := parseF(t, cell(t, rep, i, col))
			if v < 0.3 || v > 1 {
				t.Fatalf("AUC %v out of range in row %d", v, i)
			}
		}
	}
}

func TestFig16IsolationOrdering(t *testing.T) {
	rep := run(t, "fig16")
	get := func(config string) float64 {
		for i := range rep.Rows {
			if rep.Rows[i][0] == config {
				return parseF(t, cell(t, rep, i, "P99(ms)"))
			}
		}
		t.Fatalf("config %q missing", config)
		return 0
	}
	floor := get("Only Infer")
	naive := get("w/o Opt")
	full := get("w/ Reuse+Scheduling")
	if naive <= floor {
		t.Fatalf("naive co-location should inflate P99: %v vs floor %v", naive, floor)
	}
	if full >= naive {
		t.Fatalf("isolation should recover P99: %v vs naive %v", full, naive)
	}
}

func TestFig17MemorySavings(t *testing.T) {
	rep := run(t, "fig17")
	for i := range rep.Rows {
		total := parsePct(t, cell(t, rep, i, "total_saving"))
		if total < 0.5 {
			t.Fatalf("total memory saving %v too small (paper: 97-99%%)", total)
		}
		fixed := parseF(t, cell(t, rep, i, "fixed-16(B)"))
		actual := parseF(t, cell(t, rep, i, "dyn+prune(B)"))
		if actual >= fixed {
			t.Fatal("optimized footprint must undercut fixed-16")
		}
	}
}

func TestFig18PowerUtilization(t *testing.T) {
	rep := run(t, "fig18")
	// Row 0: power; row 1: utilization.
	pB := parseF(t, cell(t, rep, 0, "before(inference-only)"))
	pA := parseF(t, cell(t, rep, 0, "after(LiveUpdate)"))
	if pA <= pB {
		t.Fatal("LiveUpdate must raise power")
	}
	uB := parsePct(t, cell(t, rep, 1, "before(inference-only)"))
	uA := parsePct(t, cell(t, rep, 1, "after(LiveUpdate)"))
	if uA <= uB {
		t.Fatal("LiveUpdate must raise utilization")
	}
}

func TestFig19LogScaling(t *testing.T) {
	rep := run(t, "fig19")
	var measured, projected int
	for i := range rep.Rows {
		mode := cell(t, rep, i, "mode")
		switch mode {
		case "measured":
			measured++
		case "projected":
			projected++
		}
		total := parseF(t, cell(t, rep, i, "total(min)"))
		if total >= 10 {
			t.Fatalf("total %v min breaches the 10-minute freshness bound", total)
		}
	}
	if measured != 4 || projected != 3 {
		t.Fatalf("rows: %d measured, %d projected", measured, projected)
	}
}
