package fleet

import (
	"reflect"
	"testing"
	"time"
)

// validScripts are accepted scripts: the first mixes optional '@'s and stray
// spaces, the rest are in rendered form.
var validScripts = []string{
	"@2s kill 1; 500ms replace 0 ;@1m scale 6; @0s join",
	"@2s kill 1; @4s replace 1; @6s scale 6",
	"@500ms join; @1.5s leave 0",
	"@0s join",
	"@1m30s kill 0; @2h scale 2",
}

func TestParseScript(t *testing.T) {
	s, err := ParseScript(validScripts[0])
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{At: 2 * time.Second, Action: Kill, Arg: 1},
		{At: 500 * time.Millisecond, Action: Replace, Arg: 0},
		{At: time.Minute, Action: Scale, Arg: 6},
		{At: 0, Action: Join},
	}
	if len(s) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(s), len(want))
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, s[i], want[i])
		}
	}
}

// hostileScripts are inputs ParseScript must reject, one mistake each.
var hostileScripts = []string{
	"",                    // empty
	"   ;  ; ",            // only separators
	"kill 1",              // missing timestamp
	"@2s explode 1",       // unknown action
	"@2s kill",            // missing slot
	"@2s kill one",        // non-numeric slot
	"@2s kill -1",         // negative slot
	"@2s join 3",          // join takes no operand
	"@2s scale 0",         // fleet cannot scale to zero
	"@-2s kill 1",         // negative timestamp
	"@2parsecs kill 1",    // bad duration unit
	"@2s kill 1 and more", // trailing tokens
}

func TestParseScriptErrors(t *testing.T) {
	for _, src := range hostileScripts {
		if _, err := ParseScript(src); err == nil {
			t.Fatalf("script %q must be rejected", src)
		}
	}
}

func TestScheduleSortedIsStable(t *testing.T) {
	s := Schedule{
		{At: 2 * time.Second, Action: Kill, Arg: 1},
		{At: time.Second, Action: Scale, Arg: 4},
		{At: 2 * time.Second, Action: Replace, Arg: 1}, // same instant as the kill
	}
	got := s.Sorted()
	if got[0].Action != Scale || got[1].Action != Kill || got[2].Action != Replace {
		t.Fatalf("sorted order wrong: %v", got)
	}
	// Original untouched.
	if s[0].Action != Kill {
		t.Fatal("Sorted must not mutate the receiver")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{At: 1500 * time.Millisecond, Action: Kill, Arg: 2}
	if got := ev.String(); got != "@1.5s kill 2" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Event{At: time.Second, Action: Join}).String(); got != "@1s join" {
		t.Fatalf("join String() = %q", got)
	}
	// Round trip through the parser.
	s, err := ParseScript(Schedule{ev, {At: time.Second, Action: Join}}.String())
	if err != nil || len(s) != 2 || s[0] != ev {
		t.Fatalf("round trip failed: %v %v", s, err)
	}
}

// TestScheduleStringRoundTrips verifies String() emits the script grammar
// ParseScript accepts: parse → String → parse must reproduce the schedule
// exactly, for every action and for sub-second and zero timestamps.
func TestScheduleStringRoundTrips(t *testing.T) {
	for _, src := range validScripts[1:] {
		first, err := ParseScript(src)
		if err != nil {
			t.Fatalf("ParseScript(%q): %v", src, err)
		}
		rendered := first.String()
		second, err := ParseScript(rendered)
		if err != nil {
			t.Fatalf("String() of %q produced unparseable %q: %v", src, rendered, err)
		}
		if len(second) != len(first) {
			t.Fatalf("round trip of %q: %d events became %d", src, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("round trip of %q: event %d %+v became %+v", src, i, first[i], second[i])
			}
		}
		// A stable fixed point: rendering again must be byte-identical.
		if again := second.String(); again != rendered {
			t.Fatalf("String not a fixed point: %q then %q", rendered, again)
		}
	}
}

// FuzzParseScript: ParseScript never panics, every schedule it accepts
// validates, and rendering an accepted schedule parses back to it.
func FuzzParseScript(f *testing.F) {
	for _, src := range append(append([]string(nil), validScripts...), hostileScripts...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript(src)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseScript(%q) accepted an invalid schedule: %v", src, err)
		}
		again, err := ParseScript(s.String())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseScript(%q) = %v, but its String %q re-parses to %v, %v", src, s, s.String(), again, err)
		}
	})
}
