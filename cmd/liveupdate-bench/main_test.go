package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"liveupdate"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListPrintsThePaperIDs(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	want := []string{
		"table2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig14", "table3", "fig15", "fig16",
		"fig17", "fig18", "fig19",
	}
	if got := strings.Fields(out); !slices.Equal(got, want) {
		t.Fatalf("-list printed %q, want %q", got, want)
	}
}

func TestUnknownExperimentExits1(t *testing.T) {
	code, _, errOut := runCLI(t, "-exp", "nope")
	if code != 1 || !strings.Contains(errOut, `"nope"`) {
		t.Fatalf("-exp nope: exit %d, stderr %q; want exit 1 naming \"nope\"", code, errOut)
	}
}

func TestRemovedFlagExits2(t *testing.T) {
	if code, _, _ := runCLI(t, "-topology", "tree"); code != 2 {
		t.Fatalf("-topology tree: exit %d, want 2", code)
	}
}

func TestExperimentMatchesRunExperiment(t *testing.T) {
	want, err := liveupdate.RunExperiment("table2", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-exp", "table2", "-quick", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	report, timing, ok := strings.Cut(out, "(table2 in ")
	if !ok || report != want || !strings.HasSuffix(timing, "s)\n\n") {
		t.Fatalf("printed %q, want %q then the timing line", out, want)
	}
}
