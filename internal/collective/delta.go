package collective

import (
	"math"
	"slices"

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

// deltaBuf is deltaLocked's scratch, reused from sync to sync: which factors
// ship (rank by rank, then the publish's) and the two stripped payloads.
type deltaBuf struct {
	shipB, pubShip []bool
	pacing, pub    []lora.TableState
}

// deltaLocked computes the delta-adjusted payload sizes for one sync and
// records it in the ledger as generation gen, in one pass: every read of a
// ledger entry comes before the write that moves it. Caller holds sg.mu. The
// stripped payloads it returns live in sg.scratch until the next sync.
func (sg *SyncGroup) deltaLocked(states []RankedState, merged []lora.TableState, gen int64) deltaSizing {
	var ds deltaSizing
	sc, nt := &sg.scratch, len(merged)

	// Per-rank gather payloads: rows always ship (exports hold only rows
	// modified since the last snapshot), the shared factor ships only when
	// it no longer matches the published one. The pacing rank is the
	// largest adjusted payload, ties toward the higher rank id. Rank i's
	// flags are shipB[i*nt:(i+1)*nt].
	pacing, pacingSize := 0, int64(-1)
	sc.shipB = slices.Grow(sc.shipB[:0], len(states)*nt)[:len(states)*nt]
	clear(sc.shipB)
	for i, st := range states {
		var size int64
		for t, ts := range st.Tables {
			size += rowsPayloadBytes(ts.Rows)
			if ts.B == nil {
				continue
			}
			fp := fingerprintB(ts.B)
			if last, ok := sg.pubB[t]; !ok || last != fp {
				sc.shipB[i*nt+t] = true
				size += int64(len(ts.B.Data)) * 8
			}
		}
		ds.sum += size
		if size > pacingSize || (size == pacingSize && st.Rank > states[pacing].Rank) {
			pacing, pacingSize = i, size
		}
	}
	ds.perRank = pacingSize
	sc.pacing = stripFactors(sc.pacing, states[pacing].Tables, sc.shipB[pacing*nt:(pacing+1)*nt])
	ds.pacing = sc.pacing

	// Publish payload: merged rows plus only the factors that changed since
	// the last publish. Every published row and changed factor moves to
	// generation gen.
	sc.pubShip = slices.Grow(sc.pubShip[:0], nt)[:nt]
	clear(sc.pubShip)
	pubShip := sc.pubShip
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
	sc.pub = stripFactors(sc.pub, merged, pubShip)
	ds.pub = sc.pub

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

// stripFactors writes into dst, grown as needed, tables with the shared
// factor nil'd wherever ship is false — the delta wire representation — and
// returns it. Rows are shared, not copied; the caller treats the result as
// read-only sizing input.
func stripFactors(dst, tables []lora.TableState, ship []bool) []lora.TableState {
	out := slices.Grow(dst[:0], len(tables))[:len(tables)]
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
// the raw float bits, little-endian, written out here so no hash.Hash is
// allocated per factor). Exported factors are deep copies, so identity must
// be established by content, never by pointer.
func fingerprintB(m *tensor.Matrix) uint64 {
	if m == nil {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	mix(uint64(uint32(m.Rows)), 4)
	mix(uint64(uint32(m.Cols)), 4)
	for _, v := range m.Data {
		mix(math.Float64bits(v), 8)
	}
	return h
}
