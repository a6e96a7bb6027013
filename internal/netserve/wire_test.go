package netserve

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"liveupdate/internal/core"
	"liveupdate/internal/trace"
)

func sampleFixture() []trace.Sample {
	return []trace.Sample{
		{
			Time:   1.5,
			Dense:  []float64{0.25, -3, math.Inf(1)},
			Sparse: [][]int32{{1, 2, 3}, {}, {42}},
			Label:  1,
		},
		{
			Time:   2.0,
			Dense:  nil,
			Sparse: nil,
			Label:  0,
		},
		{
			Time:   -0.5,
			Dense:  []float64{0},
			Sparse: [][]int32{{-7}},
			Label:  1,
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := sampleFixture()
	buf := AppendBatch(nil, in)
	out, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Time != out[i].Time || in[i].Label != out[i].Label {
			t.Errorf("sample %d scalar mismatch: %+v vs %+v", i, in[i], out[i])
		}
		if !reflect.DeepEqual(normDense(in[i].Dense), normDense(out[i].Dense)) {
			t.Errorf("sample %d dense mismatch: %v vs %v", i, in[i].Dense, out[i].Dense)
		}
		if !reflect.DeepEqual(normSparse(in[i].Sparse), normSparse(out[i].Sparse)) {
			t.Errorf("sample %d sparse mismatch: %v vs %v", i, in[i].Sparse, out[i].Sparse)
		}
	}
}

// normDense/normSparse erase the nil-vs-empty distinction the wire does not
// preserve (a zero count decodes to an empty, non-nil slice).
func normDense(d []float64) []float64 {
	if len(d) == 0 {
		return []float64{}
	}
	return d
}

func normSparse(s [][]int32) [][]int32 {
	out := make([][]int32, len(s))
	for i, ids := range s {
		if len(ids) == 0 {
			out[i] = []int32{}
		} else {
			out[i] = ids
		}
	}
	return out
}

func responseFixture() []core.Response {
	return []core.Response{
		{Prob: 0.75, Latency: 0.001, Replica: 3},
		{Prob: 0, Latency: 0, Replica: 0},
		{Prob: 1, Latency: 2.5, Replica: -1},
	}
}

func TestResponsesRoundTrip(t *testing.T) {
	in := responseFixture()
	out, err := DecodeResponses(AppendResponses(nil, in))
	if err != nil {
		t.Fatalf("DecodeResponses: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// corrupt returns a valid one-sample frame with the u32 at off overwritten.
func corrupt(t testing.TB, off int, val uint32) []byte {
	t.Helper()
	buf := AppendBatch(nil, []trace.Sample{{
		Time:   1,
		Dense:  []float64{1, 2},
		Sparse: [][]int32{{3}},
		Label:  1,
	}})
	if off+4 > len(buf) {
		t.Fatalf("corrupt offset %d beyond frame of %d bytes", off, len(buf))
	}
	binary.LittleEndian.PutUint32(buf[off:], val)
	return buf
}

// Frame layout offsets for the one-sample corrupt() fixture.
const (
	offCount  = 4         // after magic
	offDense  = 4 + 4 + 8 // after magic, count, time
	offTables = offDense + 4 + 16
	offIDs    = offTables + 4
)

// hostileBatch is a request frame DecodeBatch must reject, with a substring
// of the error it must give.
type hostileBatch struct {
	name string
	data []byte
	want string
}

func hostileBatches(t testing.TB) []hostileBatch {
	return []hostileBatch{
		{"empty", nil, "truncated"},
		{"bad magic", []byte("NOPE\x01\x00\x00\x00"), "magic"},
		{"response magic on batch path", AppendResponses(nil, []core.Response{{}}), "magic"},
		{"zero count", append([]byte(batchMagic), 0, 0, 0, 0), "batch count"},
		{"giant count, tiny body", corrupt(t, offCount, math.MaxUint32), "batch count"},
		{"count just over cap", corrupt(t, offCount, maxWireBatch+1), "batch count"},
		{"giant dense count", corrupt(t, offDense, math.MaxUint32), "dense count"},
		{"giant table count", corrupt(t, offTables, math.MaxUint32), "table count"},
		{"giant id count", corrupt(t, offIDs, math.MaxUint32), "id count"},
		{"truncated mid-sample", AppendBatch(nil, sampleFixture())[:20], "truncated"},
		{"trailing garbage", append(AppendBatch(nil, sampleFixture()), 0xff), "trailing"},
	}
}

// TestDecodeBatchHostileInput: every length field a remote peer controls is
// checked against a cap before any allocation, so a tiny crafted frame
// cannot demand gigabytes.
func TestDecodeBatchHostileInput(t *testing.T) {
	for _, tc := range hostileBatches(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBatch(tc.data)
			if err == nil {
				t.Fatal("hostile frame decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBatchCumulativeCap verifies the per-batch element budget: many
// samples each under the per-sample caps must still trip the cumulative cap.
func TestDecodeBatchCumulativeCap(t *testing.T) {
	// 2048 samples × (2048 dense + 1024 ids) = 6.3M elements > maxWireElems.
	samples := make([]trace.Sample, 2048)
	for i := range samples {
		samples[i] = trace.Sample{
			Dense:  make([]float64, 2048),
			Sparse: [][]int32{make([]int32, 1024)},
		}
	}
	_, err := DecodeBatch(AppendBatch(nil, samples))
	if err == nil || !strings.Contains(err.Error(), "cumulative") {
		t.Fatalf("cumulative overflow not caught: %v", err)
	}
}

// hostileResponses are response frames DecodeResponses must reject.
func hostileResponses() []struct {
	name string
	data []byte
} {
	good := AppendResponses(nil, []core.Response{{Prob: 1}})
	return []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XXXX\x00\x00\x00\x00")},
		{"giant count", append([]byte(responseMagic), 0xff, 0xff, 0xff, 0xff)},
		{"truncated", good[:8]},
		{"trailing", append(append([]byte{}, good...), 1, 2, 3)},
	}
}

func TestDecodeResponsesHostileInput(t *testing.T) {
	for _, tc := range hostileResponses() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResponses(tc.data); err == nil {
				t.Fatal("hostile response frame decoded without error")
			}
		})
	}
}

func TestValidateSample(t *testing.T) {
	if err := validateSample(sampleFixture()[0]); err != nil {
		t.Fatalf("legitimate sample rejected: %v", err)
	}
	bad := []trace.Sample{
		{Dense: make([]float64, maxWireDense+1)},
		{Sparse: make([][]int32, maxWireTables+1)},
		{Sparse: [][]int32{make([]int32, maxWireIDs+1)}},
	}
	for i, s := range bad {
		if err := validateSample(s); err == nil {
			t.Errorf("oversized sample %d accepted", i)
		}
	}
}

func TestStatsNaNRoundTrip(t *testing.T) {
	st := core.Stats{
		Served: 10,
		P50:    math.NaN(),
		P99:    math.NaN(),
		Replicas: []core.Stats{
			{Served: 5, P50: 0.001, P99: 0.002},
			{P50: math.NaN(), P99: math.NaN()},
		},
	}
	wire := sanitizeStats(st)
	if math.IsNaN(wire.P50) || math.IsNaN(wire.P99) {
		t.Fatal("sanitizeStats left a NaN in place")
	}
	if math.IsNaN(wire.Replicas[1].P50) {
		t.Fatal("sanitizeStats missed a replica NaN")
	}
	if wire.Replicas[0].P50 != 0.001 {
		t.Fatal("sanitizeStats clobbered a real quantile")
	}
	// Sanitizing must not mutate the caller's replica slice.
	if !math.IsNaN(st.Replicas[1].P50) {
		t.Fatal("sanitizeStats mutated its input")
	}

	back := RestoreStats(wire)
	if !math.IsNaN(back.P50) || !math.IsNaN(back.P99) {
		t.Fatal("RestoreStats did not bring the NaN sentinel back")
	}
	if !math.IsNaN(back.Replicas[1].P99) {
		t.Fatal("RestoreStats missed a replica NaN")
	}
	if back.Replicas[0].P99 != 0.002 {
		t.Fatal("RestoreStats clobbered a real quantile")
	}
}
