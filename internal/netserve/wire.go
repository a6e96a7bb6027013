package netserve

// Wire formats for the serving front end. Two request encodings share one
// semantic model (a trace.Sample in, a core.Response out):
//
//   - JSON over POST /serve: one sample per request, human-debuggable
//     (curl-able); a remote client's Serve uses it.
//   - A length-prefixed binary batch over POST /serve.bin: every request a
//     remote load generator drives, one sample or a coalesced same-lane
//     run. Layout (little endian):
//
//	request:  magic "LUW1" | u32 count | count × sample
//	sample:   f64 time | u32 nDense | nDense × f64 |
//	          u32 nTables | per table: u32 nIds | nIds × i32 | u8 label
//	response: magic "LUR1" | u32 count | count × (f64 prob | f64 latency |
//	          u32 replica)
//
// Every length field is validated against the named caps below BEFORE any
// allocation — the same hostile-input discipline as the emt checkpoint
// reader — so a tiny crafted frame cannot force a huge allocation, and the
// HTTP handlers additionally bound whole request bodies with MaxBytesReader
// before a single byte is decoded.

import (
	"encoding/binary"
	"fmt"
	"math"

	"liveupdate/internal/core"
	"liveupdate/internal/trace"
)

const (
	batchMagic    = "LUW1"
	responseMagic = "LUR1"

	// Hostile-input caps. The largest legitimate profiles carry tens of
	// dense features and ~10 tables with single-digit multi-hot ids; the
	// caps leave orders of magnitude of headroom while keeping the worst
	// admissible frame far below the body cap.
	maxWireBatch    = 4096    // samples per binary batch
	maxWireDense    = 1 << 12 // dense features per sample
	maxWireTables   = 1 << 10 // sparse tables per sample
	maxWireIDs      = 1 << 12 // ids per table
	maxWireElems    = 1 << 22 // dense values + sparse ids summed over a batch
	maxJSONBody     = 1 << 20 // POST /serve body bytes
	maxBinaryBody   = 1 << 26 // POST /serve.bin body bytes
	protocolVersion = 1
)

// AppendBatch appends the binary encoding of samples to buf and returns the
// extended slice.
func AppendBatch(buf []byte, samples []trace.Sample) []byte {
	buf = append(buf, batchMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	for i := range samples {
		s := &samples[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Time))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Dense)))
		for _, d := range s.Dense {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Sparse)))
		for _, ids := range s.Sparse {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
			for _, id := range ids {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			}
		}
		buf = append(buf, byte(s.Label))
	}
	return buf
}

// DecodeBatch decodes a binary batch, validating every count against the
// wire caps before allocating.
func DecodeBatch(data []byte) ([]trace.Sample, error) {
	r := wireReader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != batchMagic {
		return nil, fmt.Errorf("netserve: bad batch magic %q", magic)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxWireBatch {
		return nil, fmt.Errorf("netserve: implausible batch count %d (max %d)", count, maxWireBatch)
	}
	samples := make([]trace.Sample, count)
	var totalElems uint64
	for i := range samples {
		s := &samples[i]
		t, err := r.u64()
		if err != nil {
			return nil, err
		}
		s.Time = math.Float64frombits(t)
		nDense, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nDense > maxWireDense {
			return nil, fmt.Errorf("netserve: implausible dense count %d (max %d)", nDense, maxWireDense)
		}
		if totalElems += uint64(nDense); totalElems > maxWireElems {
			return nil, fmt.Errorf("netserve: implausible batch: %d cumulative elements (max %d)", totalElems, maxWireElems)
		}
		s.Dense = make([]float64, nDense)
		for j := range s.Dense {
			v, err := r.u64()
			if err != nil {
				return nil, err
			}
			s.Dense[j] = math.Float64frombits(v)
		}
		nTables, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nTables > maxWireTables {
			return nil, fmt.Errorf("netserve: implausible table count %d (max %d)", nTables, maxWireTables)
		}
		s.Sparse = make([][]int32, nTables)
		for t := range s.Sparse {
			nIds, err := r.u32()
			if err != nil {
				return nil, err
			}
			if nIds > maxWireIDs {
				return nil, fmt.Errorf("netserve: implausible id count %d (max %d)", nIds, maxWireIDs)
			}
			if totalElems += uint64(nIds); totalElems > maxWireElems {
				return nil, fmt.Errorf("netserve: implausible batch: %d cumulative elements (max %d)", totalElems, maxWireElems)
			}
			ids := make([]int32, nIds)
			for k := range ids {
				v, err := r.u32()
				if err != nil {
					return nil, err
				}
				ids[k] = int32(v)
			}
			s.Sparse[t] = ids
		}
		label, err := r.byte()
		if err != nil {
			return nil, err
		}
		s.Label = int(label)
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("netserve: %d trailing bytes after batch", r.len())
	}
	return samples, nil
}

// AppendResponses appends the binary encoding of resps to buf.
func AppendResponses(buf []byte, resps []core.Response) []byte {
	buf = append(buf, responseMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(resps)))
	for i := range resps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(resps[i].Prob))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(resps[i].Latency))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(resps[i].Replica))
	}
	return buf
}

// DecodeResponses decodes a binary response frame.
func DecodeResponses(data []byte) ([]core.Response, error) {
	r := wireReader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != responseMagic {
		return nil, fmt.Errorf("netserve: bad response magic %q", magic)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > maxWireBatch {
		return nil, fmt.Errorf("netserve: implausible response count %d (max %d)", count, maxWireBatch)
	}
	resps := make([]core.Response, count)
	for i := range resps {
		p, err := r.u64()
		if err != nil {
			return nil, err
		}
		l, err := r.u64()
		if err != nil {
			return nil, err
		}
		rep, err := r.u32()
		if err != nil {
			return nil, err
		}
		resps[i] = core.Response{
			Prob:    math.Float64frombits(p),
			Latency: math.Float64frombits(l),
			Replica: int(int32(rep)),
		}
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("netserve: %d trailing bytes after responses", r.len())
	}
	return resps, nil
}

// wireReader is a bounds-checked cursor over a fully read request body.
type wireReader struct {
	data []byte
	off  int
}

func (r *wireReader) len() int { return len(r.data) - r.off }

func (r *wireReader) bytes(n int) ([]byte, error) {
	if r.len() < n {
		return nil, fmt.Errorf("netserve: truncated frame: want %d bytes, have %d", n, r.len())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wireReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *wireReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// validateSample bounds-checks a JSON-decoded sample against the wire caps;
// the JSON body size is already capped, but a sample within it can still
// carry absurd shapes the serving stack should never see.
func validateSample(s trace.Sample) error {
	if len(s.Dense) > maxWireDense {
		return fmt.Errorf("netserve: implausible dense count %d (max %d)", len(s.Dense), maxWireDense)
	}
	if len(s.Sparse) > maxWireTables {
		return fmt.Errorf("netserve: implausible table count %d (max %d)", len(s.Sparse), maxWireTables)
	}
	for t, ids := range s.Sparse {
		if len(ids) > maxWireIDs {
			return fmt.Errorf("netserve: implausible id count %d in table %d (max %d)", len(ids), t, maxWireIDs)
		}
	}
	return nil
}

// NaN quantiles (an idle Cluster's documented P50/P99 sentinel) are not
// representable in JSON; the wire replaces them with wireNaN and RestoreStats
// maps them back, so a remote Stats() round-trips the sentinel.
const wireNaN = -1

// sanitizeStats returns st with NaN quantile fields replaced by wireNaN for
// JSON transport, recursively through the per-replica breakdown.
func sanitizeStats(st core.Stats) core.Stats {
	if math.IsNaN(st.P50) {
		st.P50 = wireNaN
	}
	if math.IsNaN(st.P99) {
		st.P99 = wireNaN
	}
	if len(st.Replicas) > 0 {
		reps := make([]core.Stats, len(st.Replicas))
		for i, r := range st.Replicas {
			reps[i] = sanitizeStats(r)
		}
		st.Replicas = reps
	}
	return st
}

// RestoreStats undoes sanitizeStats on the client side.
func RestoreStats(st core.Stats) core.Stats {
	if st.P50 == wireNaN {
		st.P50 = math.NaN()
	}
	if st.P99 == wireNaN {
		st.P99 = math.NaN()
	}
	for i := range st.Replicas {
		st.Replicas[i] = RestoreStats(st.Replicas[i])
	}
	return st
}

// Info is the GET /info handshake payload: what a remote load generator
// needs to drive this server — the wire protocol version, the dataset
// profile to synthesize samples for, and the server-side shard count.
type Info struct {
	Protocol int    `json:"protocol"`
	Profile  string `json:"profile"`  // registry name (lowercased Profile.Name)
	Replicas int    `json:"replicas"` // server-side shard count (1 = single node)
}
