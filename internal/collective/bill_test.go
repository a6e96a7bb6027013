package collective

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

// The pinned sync bill: FNV-64a hashes of every priced quantity, so a
// refactor of the cost model or of the sync accounting that moves a single
// bit fails here. The topology tests compare with tolerances and the
// determinism matrix compares bills only against a reference with the same
// settings; these hashes hold ring, tree, delta and compressed bills to the
// exact bits.
const (
	pinnedCostGridHash = 0x5b8e6d7ab25abd46
	pinnedSyncBillHash = 0x1c1a19da76bcb518
)

// TestSyncBillPinned hashes (a) each topology's gather and broadcast seconds
// and wire bytes over a grid of fleet sizes, payloads and links, and (b) the
// cumulative GroupStats, MergeStats, generation, clock and merged rows after
// each of 12 syncs of six training lora.Sets, for every topology × delta ×
// compression level. A sliding quarter of the ranks sits each sync out, so
// the delta ledger's stale-rank backfill is billed too.
func TestSyncBillPinned(t *testing.T) {
	if got := costGridHash(); got != pinnedCostGridHash {
		t.Errorf("cost grid hash = %#x, want %#x", got, uint64(pinnedCostGridHash))
	}
	h := fnv.New64a()
	for _, kind := range Topologies() {
		for _, delta := range []bool{false, true} {
			for _, z := range []int{0, 1, 6} {
				fmt.Fprintf(h, "%s delta=%v z=%d\n", kind, delta, z)
				if _, err := hashSyncSchedule(h, kind, delta, z, nil); err != nil {
					t.Fatalf("%s delta=%v z=%d: %v", kind, delta, z, err)
				}
			}
		}
	}
	if got := h.Sum64(); got != pinnedSyncBillHash {
		t.Errorf("sync bill hash = %#x, want %#x", got, uint64(pinnedSyncBillHash))
	}
}

func costGridHash() uint64 {
	h := fnv.New64a()
	payloads := []int64{0, 1, 3, 1000, 4097, 1 << 20, 123456789, 1 << 31}
	for _, kind := range Topologies() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 256, 1000} {
			for _, perRank := range payloads {
				for _, merged := range payloads {
					for _, bw := range []float64{1e6, simnet.Gbps100, 100e9 / 8} {
						for _, lat := range []float64{0, 1e-6, 0.001, 0.005} {
							gather, broadcast, wire := billOf(kind, n, perRank, merged, bw, lat)
							putBits(h, math.Float64bits(gather), math.Float64bits(broadcast), uint64(wire))
						}
					}
				}
			}
		}
	}
	return h.Sum64()
}

// hashSyncSchedule runs 12 syncs of six training sets under one pricing
// configuration, writes each sync's outcome into h and returns the sets.
// A non-nil after runs once each sync is published and hashed, with the
// group and the snapshots that sync merged.
func hashSyncSchedule(h hash.Hash64, kind Kind, delta bool, z int, after func(*SyncGroup, []RankedState)) ([]*lora.Set, error) {
	const (
		ranks  = 6
		tables = 3
		rows   = 64
		dim    = 8
		syncs  = 12
	)
	base := emt.NewGroup(tables, rows, dim, tensor.NewRNG(11))
	sets := make([]*lora.Set, ranks)
	for r := range sets {
		cfg := lora.DefaultConfig(rows, dim)
		cfg.Seed = uint64(r + 1)
		cfg.DisableRankAdapt = true
		s, err := lora.NewSet(base, cfg)
		if err != nil {
			return nil, err
		}
		sets[r] = s
	}
	sg, err := newBillGroup(kind, delta, z)
	if err != nil {
		return nil, err
	}
	clock := simnet.NewClock()
	rng := tensor.NewRNG(23)
	ids := make([]int32, 5)
	grad := make([]float64, dim)
	for s := 0; s < syncs; s++ {
		for r, set := range sets {
			for b := 0; b < 1+(r+s)%3; b++ {
				for k := range ids {
					ids[k] = int32(rng.Intn(rows / 2)) // a hot half, so ranks collide
				}
				for d := range grad {
					grad[d] = 0.1 * rng.NormFloat64()
				}
				set.ApplyGrad((r+b)%tables, ids, grad, 0.05)
			}
		}
		var states []RankedState
		var live []*lora.Set
		for r, set := range sets {
			if (r+s)%4 == 0 {
				continue // a sliding quarter sits this sync out
			}
			states = append(states, RankedState{Rank: r, Tables: set.Snapshot()})
			live = append(live, set)
		}
		merged, ms, gen, err := sg.SyncRanked(clock, states)
		if err != nil {
			return nil, fmt.Errorf("sync %d: %w", s, err)
		}
		for _, set := range live {
			set.Publish(merged, gen)
		}
		fmt.Fprintf(h, "%d %+v %+v gen=%d clock=%x\n", s, sg.GroupStats(), ms, gen, math.Float64bits(clock.Now()))
		for _, mt := range merged {
			putBits(h, uint64(mt.Rank), uint64(len(mt.Rows)))
			for _, u := range mt.Rows {
				putBits(h, uint64(u.ID))
				for _, v := range u.Row {
					putBits(h, math.Float64bits(v))
				}
			}
			if mt.B != nil {
				for _, v := range mt.B.Data {
					putBits(h, math.Float64bits(v))
				}
			}
		}
		if after != nil {
			after(sg, states)
		}
	}
	return sets, nil
}

func putBits(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// billOf prices one sync's two phases over kind: gather and broadcast
// seconds, and the wire bytes of both.
func billOf(kind Kind, n int, perRank, merged int64, bw, lat float64) (gather, broadcast float64, wire int64) {
	gather, broadcast = kind.Seconds(n, perRank, merged, bw, lat)
	return gather, broadcast, kind.wireBytes(n, perRank, merged)
}

func newBillGroup(kind Kind, delta bool, z int) (*SyncGroup, error) {
	return NewSyncGroupWith(GroupConfig{
		BandwidthBps:  simnet.Gbps100,
		LatencySec:    1e-6,
		Topology:      kind,
		Delta:         delta,
		CompressLevel: z,
	})
}
