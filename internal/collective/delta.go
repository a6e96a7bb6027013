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

// deltaSizing is the delta-adjusted pricing input for one sync.
type deltaSizing struct {
	perRank int64 // pacing (largest) per-rank delta payload
	merged  int64 // delta-adjusted publish payload
	sum     int64 // Σ per-rank delta payloads (compression cpu input)

	pacing []lora.TableState // the pacing rank's payload, skipped factors nil'd
	pub    []lora.TableState // the publish payload, skipped factors nil'd

	backBytes int64   // stale-peer backfill wire volume
	backSecs  float64 // point-to-point publish time for the backfills
}

// deltaLocked computes the delta-adjusted payload sizes for one sync and
// records it in the ledger as generation gen, in one pass: every read of a
// ledger entry comes before the write that moves it. Caller holds sg.mu.
func (sg *SyncGroup) deltaLocked(states []RankedState, merged []lora.TableState, gen int64) deltaSizing {
	var ds deltaSizing

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
	// the last publish. Every published row and changed factor moves to
	// generation gen.
	pubShip := make([]bool, len(merged))
	for t, mt := range merged {
		ds.merged += rowsPayloadBytes(mt.Rows)
		fp := fingerprintB(mt.B)
		if last, ok := sg.pubB[t]; mt.B != nil && (!ok || last != fp) {
			pubShip[t] = true
			ds.merged += int64(len(mt.B.Data)) * 8
			sg.bGen[t] = gen
		}
		sg.pubB[t] = fp
		rg := sg.rowGen[t]
		if rg == nil {
			rg = make(map[int32]int64, len(mt.Rows))
			sg.rowGen[t] = rg
		}
		for _, u := range mt.Rows {
			rg[u.ID] = gen
		}
	}
	ds.pub = stripFactors(merged, pubShip)

	// Backfill: a participant whose acknowledged generation trails the
	// group's missed publishes; ship it the rows (and factors) whose
	// generation passed it by, excluding anything in this sync's publish
	// (now at gen).
	for _, st := range states {
		ack, known := sg.acked[st.Rank]
		sg.acked[st.Rank] = gen
		if !known || ack >= gen-1 {
			continue // new ranks are caught up out of band (CatchUpBytes)
		}
		var bytes int64
		for t, mt := range merged {
			rowBytes := 4 + 8*int64(mt.Rank)
			for _, g := range sg.rowGen[t] {
				if g > ack && g < gen {
					bytes += rowBytes
				}
			}
			if g := sg.bGen[t]; mt.B != nil && g > ack && g < gen {
				bytes += int64(len(mt.B.Data)) * 8
			}
		}
		ds.backBytes += bytes
		ds.backSecs += sg.LatencySec + float64(bytes)/sg.BandwidthBps
	}
	return ds
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
