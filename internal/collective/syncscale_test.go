package collective

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

// The fleet-scale sync cell: one identical training schedule on an n-member
// fleet, priced under one collective topology (optionally with delta sync and
// payload compression). Every member trains on a shared hot set, so the
// merged state saturates while flat's gather keeps shipping every rank's
// payload to every rank — the redundancy hierarchical collectives remove.
// The merged-state fingerprint is identical across every topology and
// across delta/compression at each fleet size, by construction.
const (
	ssTables   = 2      // embedding tables
	ssRows     = 2048   // rows per table
	ssDim      = 16     // embedding dimension
	ssHot      = 1024   // shared hot-set size (ids all members train on)
	ssRounds   = 3      // sync rounds
	ssBatches  = 4      // training batches per member per round
	ssBatchIDs = 32     // ids per batch
	ssLat      = 100e-9 // 100 ns switch hop — a rack-scale fabric
	ssLR       = 0.05   // training rate
	ssCompress = 6      // flate level for the delta+compressed variant
	ssBw       = simnet.Gbps100
)

// ssCell is one (config, fleet size) measurement.
type ssCell struct {
	stats GroupStats
	fp    uint64 // merged-state fingerprint
}

// ssConfig is one priced variant of the identical schedule.
type ssConfig struct {
	label    string
	kind     Kind
	delta    bool
	compress int
}

func ssMemberRNG(seed uint64, round, member int) *tensor.RNG {
	return tensor.NewRNG(seed ^
		uint64(round+1)*0x9e3779b97f4a7c15 ^
		uint64(member+1)*0xbf58476d1ce4e5b9)
}

// runSyncScaleCell builds an n-member fleet, drives the deterministic shared
// training schedule with a sync after every round, and returns the group's
// bill plus the merged-state fingerprint. The schedule depends only on
// (seed, n), never on the pricing knobs, so every config merges identical
// states.
func runSyncScaleCell(seed uint64, n int, cfg ssConfig) (ssCell, error) {
	rng := tensor.NewRNG(seed ^ 0x5c5c5c5c)
	base := emt.NewGroup(ssTables, ssRows, ssDim, rng)
	lcfg := lora.DefaultConfig(ssRows, ssDim)
	lcfg.DisableRankAdapt = true
	sets := make([]*lora.Set, n)
	for i := range sets {
		c := lcfg
		c.Seed = seed + uint64(i)
		s, err := lora.NewSet(base, c) // adapters never write the shared base
		if err != nil {
			return ssCell{}, fmt.Errorf("sync-scale cell: member %d: %w", i, err)
		}
		sets[i] = s
	}
	topo, err := ParseTopology(cfg.kind)
	if err != nil {
		return ssCell{}, err
	}
	sg, err := NewSyncGroupWith(GroupConfig{
		BandwidthBps:  ssBw,
		LatencySec:    ssLat,
		Topology:      topo,
		Delta:         cfg.delta,
		CompressLevel: cfg.compress,
	})
	if err != nil {
		return ssCell{}, err
	}
	clock := simnet.NewClock()

	hotRNG := tensor.NewRNG(seed ^ 0x407)
	hot := make([]int32, ssHot)
	for i := range hot {
		hot[i] = int32(hotRNG.Intn(ssRows))
	}
	grad := make([]float64, ssDim)
	ids := make([]int32, ssBatchIDs)
	for round := 0; round < ssRounds; round++ {
		for m := 0; m < n; m++ {
			mrng := ssMemberRNG(seed, round, m)
			for b := 0; b < ssBatches; b++ {
				for k := range ids {
					ids[k] = hot[mrng.Intn(ssHot)]
				}
				for d := range grad {
					grad[d] = 0.1 * mrng.NormFloat64()
				}
				for t := 0; t < ssTables; t++ {
					sets[m].ApplyGrad(t, ids, grad, ssLR)
				}
			}
		}
		if _, err := syncReplicas(sg, clock, sets); err != nil {
			return ssCell{}, fmt.Errorf("sync-scale cell: n=%d %s sync %d: %w", n, cfg.label, round+1, err)
		}
	}
	return ssCell{stats: sg.GroupStats(), fp: ssFingerprint(sets, hot)}, nil
}

// ssFingerprint hashes the post-sync effective rows of a deterministic
// spread of members over a sample of the hot set. After the final publish
// every member holds the merged state, so the hash is both the in-fleet
// consistency witness and the cross-config equivalence witness.
func ssFingerprint(sets []*lora.Set, hot []int32) uint64 {
	h := fnv.New64a()
	dst := make([]float64, ssDim)
	var buf [8]byte
	step := len(sets) / 16
	if step == 0 {
		step = 1
	}
	for m := 0; m < len(sets); m += step {
		for t := 0; t < ssTables; t++ {
			for _, id := range hot[:64] {
				sets[m].EffectiveRow(t, id, dst)
				for _, v := range dst {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return h.Sum64()
}

// TestSyncScaleStateTopologyInvariant: at every fleet size the merged state
// is the same under flat, ring, tree and tree+delta+flate-6 — topology,
// delta and compression change only the bill, never the state — and the
// delta+compressed variant actually saves wire bytes. The n=256 cell runs in
// TestSyncScaleTreeWireBytes.
func TestSyncScaleStateTopologyInvariant(t *testing.T) {
	configs := []ssConfig{
		{label: "flat", kind: TopologyFlat},
		{label: "ring", kind: TopologyRing},
		{label: "tree", kind: TopologyTree},
		{label: "tree+dz", kind: TopologyTree, delta: true, compress: ssCompress},
	}
	for _, n := range []int{4, 16, 64} {
		var want uint64
		for i, cfg := range configs {
			cell, err := runSyncScaleCell(7, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = cell.fp
			} else if cell.fp != want {
				t.Fatalf("merged state diverged at n=%d: %s %016x, %s %016x",
					n, configs[0].label, want, cfg.label, cell.fp)
			}
			if saved := cell.stats.DeltaSavedBytes + cell.stats.CompressSavedBytes; cfg.delta && saved <= 0 {
				t.Fatalf("%s at n=%d saved %d bytes, want > 0", cfg.label, n, saved)
			}
		}
	}
}

// TestSyncScaleTreeWireBytes is the CI smoke gate: at a 256-member fleet
// and a fixed seed, the tree collective must move less than 10% of flat's
// wire bytes while merging the bit-identical state.
func TestSyncScaleTreeWireBytes(t *testing.T) {
	const seed, n = 7, 256
	flat, err := runSyncScaleCell(seed, n, ssConfig{label: "flat", kind: TopologyFlat})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := runSyncScaleCell(seed, n, ssConfig{label: "tree", kind: TopologyTree})
	if err != nil {
		t.Fatal(err)
	}
	if tree.fp != flat.fp {
		t.Fatalf("merged state diverged: flat %016x, tree %016x", flat.fp, tree.fp)
	}
	if ratio := float64(tree.stats.WireBytes) / float64(flat.stats.WireBytes); ratio >= 0.10 {
		t.Fatalf("tree wire bytes %d are %.1f%% of flat's %d, want < 10%%",
			tree.stats.WireBytes, ratio*100, flat.stats.WireBytes)
	}
	if tree.stats.Seconds() >= flat.stats.Seconds() {
		t.Fatalf("tree sync seconds %v must undercut flat %v at n=%d",
			tree.stats.Seconds(), flat.stats.Seconds(), n)
	}
}

// TestSyncScaleDeterministic pins the cell to its seed: the cross-config
// equivalence check is only meaningful if a config rerun under the same seed
// reproduces the same state and the same bill.
func TestSyncScaleDeterministic(t *testing.T) {
	cfg := ssConfig{label: "tree+dz", kind: TopologyTree, delta: true, compress: 6}
	a, err := runSyncScaleCell(7, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSyncScaleCell(7, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.fp != b.fp || a.stats != b.stats {
		t.Fatalf("rerun diverged: %+v vs %+v", a, b)
	}
}
