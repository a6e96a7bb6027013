package liveupdate_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"liveupdate"
)

// The fleet half of internal/core's TestServeBitsPinned: a Drive over the
// 4-replica barrier-sync fleet, then 500 sequential requests, hashed (FNV-64a)
// at the commit before PR 15's flat row store. The final Stats cover what the
// sync path computes — snapshot content (SyncBytes, SyncWireBytes), merged
// rows (hot rows, overhead) — and the trailing probabilities what it
// installed. One worker: with more, which requests a snapshot lands between
// depends on scheduling, and only the virtual-time statistics are a function
// of the seed (TestDriveMatchesSequentialServe).
func TestFleetDriveBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	const wantStats, wantProbs = uint64(0x3376c3befead2ea9), uint64(0x8413ec01ddcaecd7)
	srv, gen := driveFleet(t, liveupdate.SyncModeBarrier)
	rep, err := liveupdate.Drive(srv, gen, liveupdate.DriveConfig{Requests: 3000, Concurrency: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final.Syncs == 0 {
		t.Fatal("fixture too small: no sync fired")
	}
	stats := fnv.New64a()
	fmt.Fprintf(stats, "%+v wire=%d", rep.Final, rep.SyncWireBytes)
	probs := fnv.New64a()
	var b [8]byte
	for i := 0; i < 500; i++ {
		r, err := srv.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Prob))
		probs.Write(b[:])
	}
	if stats.Sum64() != wantStats || probs.Sum64() != wantProbs {
		t.Fatalf("stats %#x (pinned %#x), probabilities %#x (pinned %#x)\n%+v",
			stats.Sum64(), wantStats, probs.Sum64(), wantProbs, rep.Final)
	}
}
