package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestFig9BitsPinned fences fig9 at full precision. The golden stores its
// AUCs to four decimals, which a learning-rate change in the seventh digit
// survives; this hashes the four float64 mean AUCs runReplicaPair returns
// (Fig9's profile and windows, quick mode, seed 7). The hash was recorded at
// the commit before fig9's training loop moved onto dlrm.Trainer, where this
// test passes unchanged.
func TestFig9BitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash recorded on amd64; other targets may fuse multiply-adds")
	}
	const want = uint64(0xd42756c6d99f25b8)
	o := quickOpts()
	p := accProfile("criteo", o.Quick)
	p.DriftRate = 0.7
	sum := fnv.New64a()
	var b [8]byte
	var aucs []float64
	for _, interval := range []int{1, 2, 4, 8} {
		auc, err := runReplicaPair(p, o, interval, accWindows(o, 12))
		if err != nil {
			t.Fatal(err)
		}
		aucs = append(aucs, auc)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(auc))
		sum.Write(b[:])
	}
	if got := sum.Sum64(); got != want {
		t.Fatalf("fig9 mean AUCs %v hash to %#x (pinned %#x)", aucs, got, want)
	}
}
