package collective

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
)

func payloadFixture() []lora.TableState {
	b := tensor.NewMatrix(3, 4)
	for i := range b.Data {
		b.Data[i] = float64(i) * 0.25
	}
	return []lora.TableState{
		{
			Rank: 3,
			B:    b,
			Rows: []lora.RowUpdate{
				{ID: 7, Row: []float64{1, 2, 3}},
				{ID: 42, Row: []float64{-0.5, 0.5, 1.5}},
			},
		},
		{Rank: 2, B: nil, Rows: []lora.RowUpdate{{ID: 0, Row: []float64{9, 9}}}},
		{Rank: 1, B: tensor.NewMatrix(1, 2)},
	}
}

func roundTripPayloads() map[string][]lora.TableState {
	return map[string][]lora.TableState{
		"fixture": payloadFixture(),
		"empty":   {},
		"no-rows": {{Rank: 4, B: tensor.NewMatrix(4, 2)}},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for name, tables := range roundTripPayloads() {
		for _, level := range []int{0, 1, 6, 9} {
			enc, err := EncodePayload(tables, level)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			dec, err := DecodePayload(enc)
			if err != nil {
				t.Fatalf("%s level %d: decode: %v", name, level, err)
			}
			if !tablesEqual(dec, tables) {
				t.Fatalf("%s level %d: round trip changed the payload", name, level)
			}
		}
	}
	if _, err := EncodePayload(nil, 10); err == nil {
		t.Fatal("level 10 must be rejected")
	}
	if _, err := EncodePayload(nil, -1); err == nil {
		t.Fatal("level -1 must be rejected")
	}
}

func TestPayloadCompressionShrinksRepetitiveTables(t *testing.T) {
	// A realistic sync payload is full of near-zero float64s; deflate must
	// beat the raw encoding for the compression knob to mean anything.
	rows := make([]lora.RowUpdate, 256)
	for i := range rows {
		rows[i] = lora.RowUpdate{ID: int32(i), Row: make([]float64, 8)}
	}
	tables := []lora.TableState{{Rank: 8, Rows: rows}}
	raw, err := EncodePayload(tables, 0)
	if err != nil {
		t.Fatal(err)
	}
	z, err := EncodePayload(tables, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(raw) {
		t.Fatalf("deflate payload %d bytes >= raw %d", len(z), len(raw))
	}
}

// One table's decoded rows share a single backing array: the decoder's
// allocations do not grow with the row count, and an append to one decoded
// row cannot reach the next.
func TestPayloadDecodeAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) (float64, []lora.TableState) {
		rows := make([]lora.RowUpdate, n)
		for i := range rows {
			rows[i] = lora.RowUpdate{ID: int32(i), Row: []float64{float64(i), 1, 2, 3}[:1+i%4]} // mixed widths
		}
		tables := []lora.TableState{{Rank: 4, Rows: rows}, {Rank: 4, Rows: rows[:n/2]}}
		enc, err := EncodePayload(tables, 0)
		if err != nil {
			t.Fatal(err)
		}
		var dec []lora.TableState
		got := testing.AllocsPerRun(10, func() {
			if dec, err = DecodePayload(enc); err != nil {
				t.Fatal(err)
			}
		})
		if !tablesEqual(dec, tables) {
			t.Fatalf("%d rows: round trip changed the payload", n)
		}
		return got, dec
	}
	small, _ := allocs(8)
	large, dec := allocs(4000)
	if large != small || large > 8 {
		t.Fatalf("decode allocates %v times for 8 rows and %v for 4000; want the same small number", small, large)
	}
	next := append([]float64(nil), dec[0].Rows[1].Row...)
	dec[0].Rows[0].Row = append(dec[0].Rows[0].Row, 42)
	if dec[0].Rows[1].Row[0] != next[0] {
		t.Fatal("append to one decoded row overwrote its neighbour")
	}
}

// validRawPayload encodes the fixture as a raw (level 0) frame.
func validRawPayload(t testing.TB) []byte {
	t.Helper()
	enc, err := EncodePayload(payloadFixture(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// hostilePayload is one malformed frame and the error it must produce.
type hostilePayload struct {
	name    string
	frame   []byte
	wantErr string
}

// payloadBody is the length of a frame's header (magic, version, flags).
const payloadBody = 6

// deflateFrame wraps a raw body in a deflate-flagged frame.
func deflateFrame(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(payloadMagic)
	buf.WriteByte(payloadVersion)
	buf.WriteByte(flagPayloadDeflate)
	fw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostilePayloads is the hostile-input regression table: every length field
// oversized past its cap, truncations, and unknown framing.
func hostilePayloads(t testing.TB) []hostilePayload {
	// Offsets into the raw frame (6-byte header, then the body):
	// body+0: tableCount; body+4: table0 rank; body+8: hasFactor;
	// body+9: factor rows; body+13: factor cols.
	const body = payloadBody
	put := func(frame []byte, off int, v uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	valid := validRawPayload(t)

	cases := []hostilePayload{
		{"empty", nil, "truncated"},
		{"short header", []byte("LUS"), "truncated"},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), "bad payload magic"},
		{"bad version", func() []byte {
			f := append([]byte(nil), valid...)
			f[4] = 99
			return f
		}(), "unsupported payload version"},
		{"unknown flags", func() []byte {
			f := append([]byte(nil), valid...)
			f[5] = 0x80
			return f
		}(), "unknown payload flags"},
		{"truncated body", valid[:len(valid)-5], "truncated"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xff), "trailing payload bytes"},
		{"table count over cap", put(valid, body, maxPayloadTables+1), "table count"},
		{"table count beyond data", put(valid, body, maxPayloadTables-1), "truncated"},
		{"rank over cap", put(valid, body+4, maxPayloadRank+1), "rank"},
		{"factor marker invalid", func() []byte {
			f := append([]byte(nil), valid...)
			f[body+8] = 7
			return f
		}(), "factor marker"},
		{"factor rows over cap", put(valid, body+9, maxPayloadRank+1), "factor rows"},
		{"factor cols over cap", put(valid, body+13, maxPayloadDim+1), "factor cols"},
		{"element budget exceeded", put(put(valid, body+9, maxPayloadRank), body+13, maxPayloadDim), "elements"},
		{"corrupt deflate", append([]byte("LUSY\x01\x01"), 0xde, 0xad, 0xbe, 0xef), "corrupt deflate"},
	}

	// Row-level corruptions need the offset of table0's first row, which
	// sits after the factor block: 9 header bytes + rows·cols floats.
	fx := payloadFixture()
	// tableCount + rank + marker + factor dims + factor data
	rowOff := body + 4 + 4 + 1 + 8 + len(fx[0].B.Data)*8
	return append(cases,
		hostilePayload{"row count over cap", put(valid, rowOff, maxPayloadRows+1), "row count"},
		hostilePayload{"row count beyond data", put(valid, rowOff, maxPayloadRows), "truncated"},
		hostilePayload{"row id past int32", put(valid, rowOff+4, math.MaxInt32+1), "row id"},
		hostilePayload{"row width over cap", put(valid, rowOff+8, maxPayloadRank+1), "row width"},
		hostilePayload{"row width beyond data", put(valid, rowOff+8, maxPayloadRank-1), "truncated"},
	)
}

// TestPayloadHostileInputs requires every hostile frame, and a deflate bomb,
// to error before any oversized allocation happens.
func TestPayloadHostileInputs(t *testing.T) {
	// Decompression bomb: a tiny deflate frame inflating past maxPayloadBody.
	bomb := deflateFrame(t, make([]byte, maxPayloadBody+2))
	if len(bomb) > 1<<20 {
		t.Fatalf("bomb frame unexpectedly large: %d", len(bomb))
	}
	for _, tc := range append(hostilePayloads(t), hostilePayload{"decompression bomb", bomb, "exceeds"}) {
		_, err := DecodePayload(tc.frame)
		if err == nil {
			t.Fatalf("%s: decode must fail", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// A deflated valid frame still round-trips through the hostile decoder.
	dec, err := DecodePayload(deflateFrame(t, validRawPayload(t)[payloadBody:]))
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(dec, payloadFixture()) {
		t.Fatal("deflated frame round trip changed the payload")
	}
}

// FuzzDecodePayload feeds DecodePayload arbitrary bytes, seeded with the
// round-trip tables (encoded raw and deflated) and the hostile frames — not
// the deflate bomb, which would inflate 256 MB on every execution. It must
// never panic, and whatever it accepts must survive a raw re-encode and a
// second decode bit for bit.
func FuzzDecodePayload(f *testing.F) {
	for _, tables := range roundTripPayloads() {
		for _, level := range []int{0, 6} {
			enc, err := EncodePayload(tables, level)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	for _, tc := range hostilePayloads(f) {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodePayload(data)
		if err != nil {
			return
		}
		enc, err := EncodePayload(dec, 0)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		again, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("decoding the re-encoded payload: %v", err)
		}
		if !tablesEqual(again, dec) {
			t.Fatal("encode∘decode is not the identity on an accepted payload")
		}
	})
}
