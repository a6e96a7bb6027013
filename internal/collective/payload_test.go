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

func TestPayloadRoundTrip(t *testing.T) {
	cases := map[string][]lora.TableState{
		"fixture": payloadFixture(),
		"empty":   {},
		"no-rows": {{Rank: 4, B: tensor.NewMatrix(4, 2)}},
	}
	for name, tables := range cases {
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

// payloadCorpus builds a valid raw frame and returns it plus helpers for
// corrupting specific fields in place.
func validRawPayload(t *testing.T) []byte {
	t.Helper()
	enc, err := EncodePayload(payloadFixture(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestPayloadHostileInputs is the hostile-input regression table: every
// length field oversized past its cap, truncations, unknown framing, and
// deflate bombs must all error before any oversized allocation happens.
func TestPayloadHostileInputs(t *testing.T) {
	// Offsets into the raw frame (6-byte header, then the body):
	// body+0: tableCount; body+4: table0 rank; body+8: hasFactor;
	// body+9: factor rows; body+13: factor cols.
	const body = 6
	put := func(frame []byte, off int, v uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	deflateFrame := func(raw []byte) []byte {
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
	valid := validRawPayload(t)

	cases := []struct {
		name    string
		frame   []byte
		wantErr string
	}{
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
	cases = append(cases,
		struct {
			name    string
			frame   []byte
			wantErr string
		}{"row count over cap", put(valid, rowOff, maxPayloadRows+1), "row count"},
		struct {
			name    string
			frame   []byte
			wantErr string
		}{"row count beyond data", put(valid, rowOff, maxPayloadRows), "truncated"},
		struct {
			name    string
			frame   []byte
			wantErr string
		}{"row id past int32", put(valid, rowOff+4, math.MaxInt32+1), "row id"},
		struct {
			name    string
			frame   []byte
			wantErr string
		}{"row width over cap", put(valid, rowOff+8, maxPayloadRank+1), "row width"},
		struct {
			name    string
			frame   []byte
			wantErr string
		}{"row width beyond data", put(valid, rowOff+8, maxPayloadRank-1), "truncated"},
	)

	// Decompression bomb: a tiny deflate frame inflating past maxPayloadBody.
	bomb := deflateFrame(make([]byte, maxPayloadBody+2))
	if len(bomb) > 1<<20 {
		t.Fatalf("bomb frame unexpectedly large: %d", len(bomb))
	}
	cases = append(cases, struct {
		name    string
		frame   []byte
		wantErr string
	}{"decompression bomb", bomb, "exceeds"})

	for _, tc := range cases {
		_, err := DecodePayload(tc.frame)
		if err == nil {
			t.Fatalf("%s: decode must fail", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// A deflated valid frame still round-trips through the hostile decoder.
	dec, err := DecodePayload(deflateFrame(valid[body:]))
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(dec, fx) {
		t.Fatal("deflated frame round trip changed the payload")
	}
}
