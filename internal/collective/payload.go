package collective

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
)

// Sync payload wire format, used to size (and optionally deflate) the
// collective's transfers deterministically:
//
//	magic "LUSY" | u8 version | u8 flags (bit0: deflate body)
//	body:
//	  u32 tableCount
//	  per table:
//	    u32 rank
//	    u8  hasFactor; if set: u32 rows, u32 cols, rows·cols f64
//	    u32 rowCount
//	    per row: u32 id, u32 width, width f64
//
// Decoding mirrors the emt checkpoint reader and the netserve wire codec:
// every length field is validated against a named cap before any allocation,
// a cumulative element budget bounds the whole payload, the deflate path is
// capped against decompression bombs, and trailing bytes are rejected.
const (
	payloadMagic   = "LUSY"
	payloadVersion = 1

	flagPayloadDeflate = 1 << 0

	// Caps leave orders of magnitude of headroom over any real sync while
	// keeping the worst admissible payload far below memory trouble.
	maxPayloadTables = 1 << 12 // tables per payload
	maxPayloadRank   = 1 << 10 // coefficients per adapter row / factor rows
	maxPayloadDim    = 1 << 14 // factor columns (embedding dimension)
	maxPayloadRows   = 1 << 24 // row updates per table
	maxPayloadBody   = 1 << 28 // decompressed body bytes (deflate-bomb guard)

	// maxPayloadElems bounds the float64s summed over the whole payload and
	// is deliberately tighter than the per-field caps multiplied out: it is
	// the binding cumulative bound (~33 MB of coefficients), checked before
	// each allocation, so a payload that keeps every individual field under
	// its cap still cannot declare unbounded total work.
	maxPayloadElems = 1 << 22
)

// compressBaseBps models single-stream deflate throughput at level 1; higher
// levels trade cpu for ratio roughly linearly, so level l runs at base/l.
const compressBaseBps = 400e6

func compressThroughputBps(level int) float64 {
	return compressBaseBps / float64(level)
}

// EncodePayload serializes tables into the sync payload format, deflating
// the body when level is 1–9 (0 writes it raw). A nil factor encodes as
// absent — the delta representation for factors the receiver already holds.
func EncodePayload(tables []lora.TableState, level int) ([]byte, error) {
	if level < 0 || level > 9 {
		return nil, fmt.Errorf("collective: compression level %d out of range [0,9]", level)
	}
	var body bytes.Buffer
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		body.Write(b[:])
	}
	putF64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		body.Write(b[:])
	}
	putU32(uint32(len(tables)))
	for _, ts := range tables {
		putU32(uint32(ts.Rank))
		if ts.B != nil {
			body.WriteByte(1)
			putU32(uint32(ts.B.Rows))
			putU32(uint32(ts.B.Cols))
			for _, v := range ts.B.Data {
				putF64(v)
			}
		} else {
			body.WriteByte(0)
		}
		putU32(uint32(len(ts.Rows)))
		for _, u := range ts.Rows {
			putU32(uint32(u.ID))
			putU32(uint32(len(u.Row)))
			for _, v := range u.Row {
				putF64(v)
			}
		}
	}

	out := bytes.NewBufferString(payloadMagic)
	out.WriteByte(payloadVersion)
	if level == 0 {
		out.WriteByte(0)
		out.Write(body.Bytes())
		return out.Bytes(), nil
	}
	out.WriteByte(flagPayloadDeflate)
	fw, err := flate.NewWriter(out, level)
	if err != nil {
		return nil, fmt.Errorf("collective: deflate init: %w", err)
	}
	if _, err := fw.Write(body.Bytes()); err != nil {
		return nil, fmt.Errorf("collective: deflate payload: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("collective: deflate payload: %w", err)
	}
	return out.Bytes(), nil
}

// compressedPayloadBytes is EncodePayload's size, used to price deflated
// transfers. The level was validated at group construction, so encoding
// cannot fail.
func compressedPayloadBytes(tables []lora.TableState, level int) int64 {
	enc, err := EncodePayload(tables, level)
	if err != nil {
		panic(err)
	}
	return int64(len(enc))
}

// payloadReader is a bounds-checked cursor over an untrusted payload, in the
// style of netserve's wireReader: every read validates remaining length
// first, so a truncated or hostile input fails cleanly instead of slicing
// out of range.
type payloadReader struct {
	data []byte
	off  int
}

func (r *payloadReader) remaining() int { return len(r.data) - r.off }

func (r *payloadReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("collective: truncated payload")
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *payloadReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("collective: truncated payload")
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *payloadReader) f64s(dst []float64) error {
	need := len(dst) * 8
	if r.remaining() < need {
		return fmt.Errorf("collective: truncated payload")
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
		r.off += 8
	}
	return nil
}

// DecodePayload parses an EncodePayload frame, rejecting malformed or
// hostile input before allocating for it.
func DecodePayload(data []byte) ([]lora.TableState, error) {
	hdr := payloadReader{data: data}
	if hdr.remaining() < len(payloadMagic) {
		return nil, fmt.Errorf("collective: truncated payload")
	}
	if string(data[:len(payloadMagic)]) != payloadMagic {
		return nil, fmt.Errorf("collective: bad payload magic")
	}
	hdr.off = len(payloadMagic)
	version, err := hdr.u8()
	if err != nil {
		return nil, err
	}
	if version != payloadVersion {
		return nil, fmt.Errorf("collective: unsupported payload version %d", version)
	}
	flags, err := hdr.u8()
	if err != nil {
		return nil, err
	}
	if flags&^byte(flagPayloadDeflate) != 0 {
		return nil, fmt.Errorf("collective: unknown payload flags %#x", flags)
	}

	body := data[hdr.off:]
	if flags&flagPayloadDeflate != 0 {
		fr := flate.NewReader(bytes.NewReader(body))
		// Cap the inflated size before buffering it: one byte of slack past
		// the cap distinguishes "too big" from "exactly at the cap".
		inflated, err := io.ReadAll(io.LimitReader(fr, maxPayloadBody+1))
		if cerr := fr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("collective: corrupt deflate payload: %w", err)
		}
		if len(inflated) > maxPayloadBody {
			return nil, fmt.Errorf("collective: inflated payload exceeds %d bytes", maxPayloadBody)
		}
		body = inflated
	}

	r := payloadReader{data: body}
	tableCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	if tableCount > maxPayloadTables {
		return nil, fmt.Errorf("collective: payload table count %d exceeds cap %d", tableCount, maxPayloadTables)
	}
	var elems int64
	budget := func(n int64) error {
		elems += n
		if elems > maxPayloadElems {
			return fmt.Errorf("collective: payload elements %d exceed cap %d", elems, maxPayloadElems)
		}
		return nil
	}
	tables := make([]lora.TableState, tableCount)
	for t := range tables {
		rank, err := r.u32()
		if err != nil {
			return nil, err
		}
		if rank > maxPayloadRank {
			return nil, fmt.Errorf("collective: payload rank %d exceeds cap %d", rank, maxPayloadRank)
		}
		tables[t].Rank = int(rank)
		hasB, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch hasB {
		case 0:
		case 1:
			rows, err := r.u32()
			if err != nil {
				return nil, err
			}
			cols, err := r.u32()
			if err != nil {
				return nil, err
			}
			if rows > maxPayloadRank {
				return nil, fmt.Errorf("collective: payload factor rows %d exceed cap %d", rows, maxPayloadRank)
			}
			if cols > maxPayloadDim {
				return nil, fmt.Errorf("collective: payload factor cols %d exceed cap %d", cols, maxPayloadDim)
			}
			if err := budget(int64(rows) * int64(cols)); err != nil {
				return nil, err
			}
			m := tensor.NewMatrix(int(rows), int(cols))
			if err := r.f64s(m.Data); err != nil {
				return nil, err
			}
			tables[t].B = m
		default:
			return nil, fmt.Errorf("collective: payload factor marker %d invalid", hasB)
		}
		rowCount, err := r.u32()
		if err != nil {
			return nil, err
		}
		if rowCount > maxPayloadRows {
			return nil, fmt.Errorf("collective: payload row count %d exceeds cap %d", rowCount, maxPayloadRows)
		}
		// A row is at least its two header words, so the bytes left bound
		// the count; a first pass over the headers then sizes the one array
		// that backs every row of the table.
		if int64(rowCount)*8 > int64(r.remaining()) {
			return nil, fmt.Errorf("collective: truncated payload")
		}
		rowsAt, coefs := r.off, 0
		for i := uint32(0); i < rowCount; i++ {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			// The adapters keep ids as int32 and use a negative one as "no
			// row": a u32 past MaxInt32 must not wrap into one.
			if id > math.MaxInt32 {
				return nil, fmt.Errorf("collective: payload row id %d exceeds %d", id, math.MaxInt32)
			}
			width, err := r.u32()
			if err != nil {
				return nil, err
			}
			if width > maxPayloadRank {
				return nil, fmt.Errorf("collective: payload row width %d exceeds cap %d", width, maxPayloadRank)
			}
			if err := budget(int64(width)); err != nil {
				return nil, err
			}
			if r.remaining() < int(width)*8 {
				return nil, fmt.Errorf("collective: truncated payload")
			}
			r.off += int(width) * 8
			coefs += int(width)
		}
		r.off = rowsAt
		rows, buf := make([]lora.RowUpdate, rowCount), make([]float64, coefs)
		for i := range rows { // every read below was bounds-checked by the first pass
			id, _ := r.u32()
			width, _ := r.u32()
			rows[i] = lora.RowUpdate{ID: int32(id), Row: buf[:width:width]}
			buf = buf[width:]
			r.f64s(rows[i].Row)
		}
		tables[t].Rows = rows
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("collective: %d trailing payload bytes", r.remaining())
	}
	return tables, nil
}
