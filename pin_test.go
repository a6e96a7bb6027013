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

// The fleet half of internal/core's TestServeBitsPinned: the 4-replica
// hash-routed fleet serves 3 000 requests in order with a SyncNow at every
// 2 s mark of its virtual clock, then 500 more, hashed (FNV-64a); the pins
// predate the flat LoRA row store. The Stats after the 3 000 cover what
// the sync path computes — snapshot content (SyncBytes, SyncWireBytes),
// merged rows (hot rows, overhead) — and the trailing probabilities what it
// installed. The marks are explicit barriers: under the periodic pipeline,
// which requests a snapshot lands between depends on scheduling, and only
// the virtual-time statistics are a function of the seed
// (TestDriveMatchesSequentialServe).
func TestFleetDriveBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other targets may fuse multiply-adds")
	}
	const wantStats, wantProbs = uint64(0x3376c3befead2ea9), uint64(0x8413ec01ddcaecd7)
	srv, gen := driveFleet(t, 0)
	synced := 0
	serve := func() liveupdate.Response {
		t.Helper()
		r, err := srv.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		for e := int(math.Floor(srv.VirtualNow() / 2)); synced < e; synced++ {
			if _, err := srv.SyncNow(); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	for i := 0; i < 3000; i++ {
		serve()
	}
	st := srv.Stats()
	if st.Syncs == 0 {
		t.Fatal("fixture too small: no mark crossed")
	}
	stats := fnv.New64a()
	fmt.Fprintf(stats, "%+v wire=%d", st, st.SyncWireBytes)
	probs := fnv.New64a()
	var b [8]byte
	for i := 0; i < 500; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(serve().Prob))
		probs.Write(b[:])
	}
	if stats.Sum64() != wantStats || probs.Sum64() != wantProbs {
		t.Fatalf("stats %#x (pinned %#x), probabilities %#x (pinned %#x)\n%+v",
			stats.Sum64(), wantStats, probs.Sum64(), wantProbs, st)
	}
}
