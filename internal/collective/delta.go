package collective

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
)

// Delta sync is a cost-accounting layer, not a state-flow change: the merge
// always runs over every rank's full export, so the published state is
// bit-identical to full sync. What changes is the bill. Each rank's gather
// contribution skips the shared B factor when it still matches the last
// published one (every receiver holds that factor in its published Version,
// so a real protocol would reference it instead of resending); the publish
// skips unchanged factors the same way. Peers that missed publishes — ranks
// whose last acknowledged generation trails the group's — are backfilled
// point-to-point with the rows whose generation passed them by, which is the
// "ship only rows whose epoch changed since the peer's last acknowledged
// generation" half of the protocol.

// deltaTracking stages the generation bookkeeping one delta-mode sync
// applies when SyncRanked folds it into the group totals: which rows the
// publish touched, whether each table's published factor changed, and which
// ranks acknowledged the generation.
type deltaTracking struct {
	participants []int
	mergedIDs    [][]int32 // per table: row ids published this sync
	bChanged     []bool    // per table: published B differs from the last publish
	newPubB      []uint64  // per table: fingerprint of the B published this sync
}

// deltaSizing is the delta-adjusted pricing input for one sync.
type deltaSizing struct {
	perRank int64 // pacing (largest) per-rank delta payload
	merged  int64 // delta-adjusted publish payload
	sum     int64 // Σ per-rank delta payloads (compression cpu input)

	pacing []lora.TableState // the pacing rank's payload, skipped factors nil'd
	pub    []lora.TableState // the publish payload, skipped factors nil'd

	track     *deltaTracking
	backBytes int64   // stale-peer backfill wire volume
	backSecs  float64 // point-to-point publish time for the backfills
}

// deltaSize computes the delta-adjusted payload sizes for one sync. It reads
// the tracking maps under sg.mu but defers every mutation to SyncRanked via
// the staged deltaTracking, so a failed or abandoned merge leaves no trace.
func (sg *SyncGroup) deltaSize(states []RankedState, merged []lora.TableState) deltaSizing {
	numTables := len(merged)
	ds := deltaSizing{
		track: &deltaTracking{
			participants: make([]int, len(states)),
			mergedIDs:    make([][]int32, numTables),
			bChanged:     make([]bool, numTables),
			newPubB:      make([]uint64, numTables),
		},
	}
	for i, st := range states {
		ds.track.participants[i] = st.Rank
	}
	for t, mt := range merged {
		ids := make([]int32, len(mt.Rows))
		for i, u := range mt.Rows {
			ids[i] = u.ID
		}
		ds.track.mergedIDs[t] = ids
	}

	sg.mu.Lock()
	defer sg.mu.Unlock()

	// Per-rank gather payloads: rows always ship (exports hold only rows
	// modified since the last snapshot), the shared factor ships only when
	// it no longer matches the published one. The pacing rank is the
	// largest adjusted payload, ties toward the higher rank id.
	pacing, pacingSize := 0, int64(-1)
	shipB := make([][]bool, len(states))
	for i, st := range states {
		var size int64
		shipB[i] = make([]bool, len(st.Tables))
		for t, ts := range st.Tables {
			size += rowsPayloadBytes(ts.Rows)
			if ts.B == nil {
				continue
			}
			fp := fingerprintB(ts.B)
			if last, ok := sg.pubB[t]; !ok || last != fp {
				shipB[i][t] = true
				size += int64(len(ts.B.Data)) * 8
			}
		}
		ds.sum += size
		if size > pacingSize || (size == pacingSize && st.Rank > states[pacing].Rank) {
			pacing, pacingSize = i, size
		}
	}
	ds.perRank = pacingSize
	ds.pacing = stripFactors(states[pacing].Tables, shipB[pacing])

	// Publish payload: merged rows plus only the factors that changed since
	// the last publish.
	pubShip := make([]bool, numTables)
	for t, mt := range merged {
		ds.merged += rowsPayloadBytes(mt.Rows)
		fp := fingerprintB(mt.B)
		ds.track.newPubB[t] = fp
		if mt.B == nil {
			continue
		}
		if last, ok := sg.pubB[t]; !ok || last != fp {
			ds.track.bChanged[t] = true
			pubShip[t] = true
			ds.merged += int64(len(mt.B.Data)) * 8
		}
	}
	ds.pub = stripFactors(merged, pubShip)

	// Backfill: a participant whose acknowledged generation trails the
	// group's missed publishes; ship it the rows (and factors) that changed
	// in between, excluding anything already in this sync's publish.
	lastGen := int64(sg.stats.Syncs)
	var inPub []map[int32]bool // lazily built: per table, ids published this sync
	for _, st := range states {
		ack, known := sg.acked[st.Rank]
		if !known || ack >= lastGen {
			continue // new ranks are caught up out of band (CatchUpBytes)
		}
		if inPub == nil {
			inPub = make([]map[int32]bool, numTables)
			for t := range merged {
				set := make(map[int32]bool, len(merged[t].Rows))
				for _, u := range merged[t].Rows {
					set[u.ID] = true
				}
				inPub[t] = set
			}
		}
		var bytes int64
		for t, mt := range merged {
			rowBytes := 4 + 8*int64(mt.Rank)
			for id, gen := range sg.rowGen[t] {
				if gen > ack && !inPub[t][id] {
					bytes += rowBytes
				}
			}
			if mt.B != nil && sg.bGen[t] > ack && !ds.track.bChanged[t] {
				bytes += int64(len(mt.B.Data)) * 8
			}
		}
		ds.backBytes += bytes
		ds.backSecs += sg.LatencySec + float64(bytes)/sg.BandwidthBps
	}
	return ds
}

// applyTrackingLocked folds one committed delta sync's bookkeeping into the
// tracking maps. Caller holds sg.mu; gen is the just-committed generation.
func (sg *SyncGroup) applyTrackingLocked(t *deltaTracking, gen int64) {
	for ti := range t.mergedIDs {
		rg := sg.rowGen[ti]
		if rg == nil {
			rg = make(map[int32]int64)
			sg.rowGen[ti] = rg
		}
		for _, id := range t.mergedIDs[ti] {
			rg[id] = gen
		}
		sg.pubB[ti] = t.newPubB[ti]
		if t.bChanged[ti] {
			sg.bGen[ti] = gen
		}
	}
	for _, r := range t.participants {
		sg.acked[r] = gen
	}
}

// stripFactors returns tables with the shared factor nil'd wherever ship is
// false — the delta wire representation. Rows are shared, not copied; the
// caller treats the result as read-only sizing input.
func stripFactors(tables []lora.TableState, ship []bool) []lora.TableState {
	out := make([]lora.TableState, len(tables))
	for t, ts := range tables {
		out[t] = ts
		if t < len(ship) && !ship[t] {
			out[t].B = nil
		}
	}
	return out
}

// rowsPayloadBytes prices a row list the same way lora.PayloadBytes does:
// 4 bytes of id plus 8 per coefficient.
func rowsPayloadBytes(rows []lora.RowUpdate) int64 {
	var total int64
	for _, u := range rows {
		total += 4 + int64(len(u.Row))*8
	}
	return total
}

// fingerprintB hashes a shared factor's dimensions and contents (FNV-1a over
// the raw float bits). Exported factors are deep copies, so identity must be
// established by content, never by pointer.
func fingerprintB(m *tensor.Matrix) uint64 {
	if m == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(m.Rows))
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Cols))
	h.Write(buf[:])
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}
