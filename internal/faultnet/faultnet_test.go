package faultnet

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// grammarPlan mixes explicit knobs, defaults and stray spaces.
const grammarPlan = "latency(p=0.2,min=1ms,max=20ms); reset(p=0.05) ;corrupt(bits=5)"

func mustParsePlan(s string) Plan {
	p, err := ParsePlan(s)
	if err != nil {
		panic(err)
	}
	return p
}

func TestParsePlanGrammar(t *testing.T) {
	plan, err := ParsePlan(grammarPlan)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if len(plan.Faults) != 3 {
		t.Fatalf("got %d faults, want 3", len(plan.Faults))
	}
	f := plan.Faults[0]
	if f.Class != faultLatency || f.P != 0.2 || f.Min != time.Millisecond || f.Max != 20*time.Millisecond {
		t.Errorf("latency clause parsed wrong: %+v", f)
	}
	if plan.Faults[1].Class != faultReset || plan.Faults[1].P != 0.05 {
		t.Errorf("reset clause parsed wrong: %+v", plan.Faults[1])
	}
	if plan.Faults[2].Class != faultCorrupt || plan.Faults[2].P != defaultP || plan.Faults[2].Bits != 5 {
		t.Errorf("corrupt clause parsed wrong: %+v", plan.Faults[2])
	}
	// Bare class name takes every default.
	plan, err = ParsePlan("blackhole")
	if err != nil {
		t.Fatalf("bare clause: %v", err)
	}
	if plan.Faults[0].Stall != defaultStall {
		t.Errorf("bare blackhole stall = %v, want default %v", plan.Faults[0].Stall, defaultStall)
	}
	// Empty string is a disabled plan, not an error.
	plan, err = ParsePlan("")
	if err != nil || plan.Enabled() {
		t.Errorf("empty plan: enabled=%v err=%v", plan.Enabled(), err)
	}
}

// hostilePlans are inputs ParsePlan must reject, one mistake each.
var hostilePlans = []string{
	"gremlins",                  // unknown class
	"latency(p=1.5)",            // probability > 1
	"latency(p=-0.1)",           // negative probability
	"latency(p=NaN)",            // NaN probability
	"latency(min=-1ms)",         // negative duration
	"latency(min=5ms,max=1ms)",  // min > max
	"blackhole(stall=-50ms)",    // negative stall
	"truncate(bytes=-4)",        // negative byte cap
	"corrupt(bits=0)",           // too few flips
	"corrupt(bits=65)",          // too many flips
	"reset(p)",                  // not key=value
	"reset(q=1)",                // unknown key
	"reset(p=0.1",               // missing paren
	"latency(min=9999999h999m)", // unparseable duration
	";;",                        // clauses all empty
}

func TestParsePlanRejectsHostileInput(t *testing.T) {
	for _, s := range hostilePlans {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted hostile input", s)
		}
	}
}

// canonicalPlan names every class with every knob explicit.
const canonicalPlan = "latency(p=0.2,min=1ms,max=20ms);reset(p=0.05);blackhole(p=0.01,stall=50ms);truncate(p=0.02,bytes=7);corrupt(p=0.03,bits=5)"

func TestPlanStringRoundTrip(t *testing.T) {
	plan := mustParsePlan(canonicalPlan)
	again, err := ParsePlan(plan.String())
	if err != nil {
		t.Fatalf("reparse canonical form: %v", err)
	}
	if len(again.Faults) != len(plan.Faults) {
		t.Fatalf("round trip lost clauses: %d != %d", len(again.Faults), len(plan.Faults))
	}
	for i := range plan.Faults {
		if again.Faults[i] != plan.Faults[i] {
			t.Errorf("clause %d: %+v != %+v", i, again.Faults[i], plan.Faults[i])
		}
	}
}

// FuzzParsePlan: ParsePlan never panics; every fault it accepts passes
// validateFault; re-parsing the plan's Name gives the same plan; and the
// canonical String form parses back to the same faults.
func FuzzParsePlan(f *testing.F) {
	for _, s := range append([]string{grammarPlan, canonicalPlan, "blackhole", ""}, hostilePlans...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParsePlan(s)
		if err != nil {
			return
		}
		for i, fault := range plan.Faults {
			if err := validateFault(fault); err != nil {
				t.Fatalf("ParsePlan(%q) accepted invalid fault %d %+v: %v", s, i, fault, err)
			}
		}
		again, err := ParsePlan(plan.Name)
		if err != nil || !reflect.DeepEqual(again, plan) {
			t.Fatalf("ParsePlan(%q) = %+v, but its Name re-parses to %+v, %v", s, plan, again, err)
		}
		canon, err := ParsePlan(plan.String())
		if err != nil || !reflect.DeepEqual(canon.Faults, plan.Faults) {
			t.Fatalf("ParsePlan(%q) = %+v, but String %q re-parses to %+v, %v", s, plan, plan.String(), canon.Faults, err)
		}
	})
}

// faultSequence drives n reads through a wrapped pipe and records which
// fault class (or -1) hit each read.
func faultSequence(t *testing.T, plan Plan, serial uint64, reads int) []int {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var ctrs faultCounters
	fc := wrapConn(server, plan, serial, &ctrs)
	go func() {
		buf := []byte("xxxxxxxx")
		for i := 0; i < reads; i++ {
			client.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := client.Write(buf); err != nil {
				return
			}
		}
	}()
	seq := make([]int, 0, reads)
	buf := make([]byte, 8)
	for i := 0; i < reads; i++ {
		before := snapshotCounts(&ctrs)
		_, err := fc.Read(buf)
		after := snapshotCounts(&ctrs)
		class := -1
		for c := 0; c < numClasses; c++ {
			if after[c] != before[c] {
				class = c
			}
		}
		seq = append(seq, class)
		if err != nil {
			break
		}
	}
	return seq
}

func snapshotCounts(c *faultCounters) [numClasses]uint64 {
	var out [numClasses]uint64
	for _, class := range Classes() {
		out[class] = c.counts[class].Load()
	}
	return out
}

func TestFaultSequenceDeterministicFromSeed(t *testing.T) {
	plan := mustParsePlan("latency(p=0.3,min=0s,max=0s);corrupt(p=0.3,bits=1)")
	plan.Seed = 42
	a := faultSequence(t, plan, 7, 64)
	b := faultSequence(t, plan, 7, 64)
	if len(a) != len(b) {
		t.Fatalf("replay length mismatch: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: fault %d on first run, %d on replay", i, a[i], b[i])
		}
	}
	// A different connection serial must see a different stream.
	c := faultSequence(t, plan, 8, 64)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("serial 7 and serial 8 produced identical fault sequences")
	}
}

func TestResetKillsConnectionStickily(t *testing.T) {
	plan := mustParsePlan("reset(p=1)")
	client, server := net.Pipe()
	defer client.Close()
	var ctrs faultCounters
	fc := wrapConn(server, plan, 0, &ctrs)
	go client.Write([]byte("hello"))
	buf := make([]byte, 8)
	_, err := fc.Read(buf)
	var inj *injectedError
	if !errors.As(err, &inj) || inj.Class != faultReset {
		t.Fatalf("want injected reset, got %v", err)
	}
	// Sticky: the second read fails the same way without touching the conn.
	if _, err2 := fc.Read(buf); !errors.Is(err2, err) {
		t.Errorf("second read after reset: %v", err2)
	}
	if ctrs.counts[faultReset].Load() != 1 {
		t.Errorf("reset counted %d times, want 1 (sticky reads must not recount)", ctrs.counts[faultReset].Load())
	}
	// The peer observes the close.
	client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Error("peer read succeeded after injected reset")
	}
}

func TestBlackholeStallsThenKills(t *testing.T) {
	plan := mustParsePlan("blackhole(p=1,stall=30ms)")
	client, server := net.Pipe()
	defer client.Close()
	var ctrs faultCounters
	fc := wrapConn(server, plan, 0, &ctrs)
	go client.Write([]byte("hello"))
	start := time.Now()
	_, err := fc.Read(make([]byte, 8))
	elapsed := time.Since(start)
	var inj *injectedError
	if !errors.As(err, &inj) || inj.Class != faultBlackhole {
		t.Fatalf("want injected blackhole, got %v", err)
	}
	if !inj.Timeout() {
		t.Error("blackhole error should report Timeout() == true")
	}
	if elapsed < 25*time.Millisecond {
		t.Errorf("blackhole returned after %v, want >= ~30ms stall", elapsed)
	}
}

func TestTruncateDeliversShortRead(t *testing.T) {
	plan := mustParsePlan("truncate(p=1,bytes=3)")
	client, server := net.Pipe()
	defer client.Close()
	var ctrs faultCounters
	fc := wrapConn(server, plan, 0, &ctrs)
	go client.Write([]byte("abcdefgh"))
	buf := make([]byte, 8)
	n, _ := fc.Read(buf)
	if n != 3 || string(buf[:3]) != "abc" {
		t.Fatalf("truncate delivered %d bytes (%q), want 3 (\"abc\")", n, buf[:n])
	}
	// Follow-up read must fail: the frame was cut, not delayed.
	if _, err := fc.Read(buf); err == nil {
		t.Error("read after truncation succeeded")
	}
}

func TestCorruptFlipsBitsButKeepsStream(t *testing.T) {
	plan := mustParsePlan("corrupt(p=1,bits=1)")
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var ctrs faultCounters
	fc := wrapConn(server, plan, 0, &ctrs)
	orig := []byte("abcdefgh")
	go client.Write(orig)
	buf := make([]byte, 8)
	n, err := fc.Read(buf)
	if err != nil || n != 8 {
		t.Fatalf("corrupt read: n=%d err=%v", n, err)
	}
	diff := 0
	for i := range orig {
		diff += popcount(orig[i] ^ buf[i])
	}
	if diff != 1 {
		t.Errorf("corrupt(bits=1) flipped %d bits, want exactly 1", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestListenerWrapsAndCounts(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer inner.Close()
	plan := mustParsePlan("reset(p=1)")
	plan.Seed = 1
	ln := WrapListener(inner, plan)
	lnErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			lnErr <- err
			return
		}
		defer c.Close()
		_, err = c.Read(make([]byte, 8))
		lnErr <- err
	}()
	client, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	client.Write([]byte("hi"))
	select {
	case err := <-lnErr:
		var inj *injectedError
		if !errors.As(err, &inj) {
			t.Fatalf("accept-side read error = %v, want injected", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for wrapped accept")
	}
	if ln.FaultsTotal() != 1 {
		t.Errorf("FaultsTotal = %d, want 1", ln.FaultsTotal())
	}
}
