package update

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"liveupdate/internal/trace"
)

// harnessHash runs 12 pretrain + 14 evaluation windows (one full sync at
// window 12, delta/quick syncs every second window) and hashes everything a
// Result reports that a refactor of Step could move.
func harnessHash(k Kind, delay int) uint64 {
	cfg := DefaultHarnessConfig(trace.Profiles()["criteo"], k, 7)
	cfg.SyncDelayWindows = delay
	h := MustNewHarness(cfg)
	h.Pretrain(12)
	res := h.Run(14)
	sum := fnv.New64a()
	var b [8]byte
	for _, a := range res.AUCSeries {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a))
		sum.Write(b[:])
	}
	fmt.Fprintf(sum, "bytes=%d syncs=%d full=%d markers=%v", res.Bytes, res.Syncs, res.FullSyncs, res.UpdateMarkers)
	return sum.Sum64()
}

// TestHarnessBitsPinned fences update.Harness the way TestServeBitsPinned
// fences Serve: the hashes were recorded at the commit before the slab-backed
// sample stream and the recycled snapshot ring (PR 21), where this test passes
// unchanged.
func TestHarnessBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	want := []struct {
		kind   Kind
		hashes [3]uint64 // SyncDelayWindows -1, 1, 2
	}{
		{NoUpdate, [3]uint64{0x3e4b4a271ccd7a3d, 0x3e4b4a271ccd7a3d, 0x3e4b4a271ccd7a3d}},
		{DeltaUpdate, [3]uint64{0x76f290759ac2014b, 0xb5a7d2cd5b6ec12e, 0x9335ce2a3f0b4735}},
		{QuickUpdate, [3]uint64{0xe0d9c809f98ec10e, 0x1cb824715114d9a7, 0xf2087cef208987ee}},
		{LiveUpdate, [3]uint64{0x5ba0ae70b36cd40f, 0x5ba0ae70b36cd40f, 0x5ba0ae70b36cd40f}},
	}
	for _, w := range want {
		for i, delay := range []int{-1, 1, 2} {
			// The race detector has one goroutine to watch here and slows the
			// run tenfold: it gets the two benchmarked strategies at one ring depth.
			if (raceEnabled || testing.Short()) && (delay != 2 || w.kind == NoUpdate || w.kind == QuickUpdate) {
				continue
			}
			if got := harnessHash(w.kind, delay); got != w.hashes[i] {
				t.Errorf("%v delay %d: %#x (pinned %#x)", w.kind, delay, got, w.hashes[i])
			}
		}
	}
}

// TestHarnessStepSteadyStateAllocs holds Step to what it cannot reuse once
// the snapshot ring has filled: the window's samples (4), the AUC scores and
// labels, and — LiveUpdate only — adapter slab growth and rank resizes.
func TestHarnessStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := trace.Profiles()["criteo"]
	const never = 1 << 30
	for _, c := range []struct {
		name        string
		kind        Kind
		updateEvery int
		max         float64 // allocations per 600-sample window
	}{
		{"DeltaUpdate, no sync", DeltaUpdate, never, 40},
		{"DeltaUpdate, sync every window", DeltaUpdate, 1, 40 + 12*float64(p.NumTables)},
		{"LiveUpdate", LiveUpdate, never, 0.3 * 600},
	} {
		cfg := DefaultHarnessConfig(p, c.kind, 7)
		cfg.UpdateEvery, cfg.FullSyncEvery = c.updateEvery, 0
		h := MustNewHarness(cfg)
		h.Pretrain(2)
		h.Run(cfg.SyncDelayWindows + 2) // the ring holds SyncDelayWindows+1 snapshots
		if got := testing.AllocsPerRun(5, func() { h.Step() }); got > c.max {
			t.Errorf("%s: %.0f allocations per Step, want <= %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.0f allocations per Step (limit %.0f)", c.name, got, c.max)
		}
	}
}
