package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"liveupdate/internal/trace"
)

// The served probabilities and the final Stats of TestServeIsAFunctionOfTheSeed's
// fixture, as FNV-64a hashes recorded at the commit before internal/lora's row
// store went from Go maps to a flat slab (PR 15). A storage refactor must not
// move a bit of either: same rows, same RNG draw order, same rank trajectory.
// If a change is meant to alter what the node computes, re-record them.
func TestServeBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	n, wantProbs, wantStats := 20000, uint64(0xc35a1488f0dd8658), uint64(0xa565f5780e622503)
	if raceEnabled || testing.Short() {
		n, wantProbs, wantStats = 5000, 0xc525fe88c06a9964, 0xf297475d4a5e3358
	}
	p := trace.Profiles()["criteo"]
	sys, gen := MustNew(DefaultOptions(p, 42)), trace.MustNewGenerator(p, 7)
	probs := fnv.New64a()
	var b [8]byte
	for i := 0; i < n; i++ {
		r, err := sys.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Prob))
		probs.Write(b[:])
	}
	stats := fnv.New64a()
	fmt.Fprintf(stats, "%+v", sys.Stats())
	if probs.Sum64() != wantProbs || stats.Sum64() != wantStats {
		t.Fatalf("after %d requests: probabilities %#x (pinned %#x), stats %#x (pinned %#x)\n%+v",
			n, probs.Sum64(), wantProbs, stats.Sum64(), wantStats, sys.Stats())
	}
}
