package netserve

import (
	"bytes"
	"math"
	"testing"

	"liveupdate/internal/core"
	"liveupdate/internal/trace"
)

// FuzzDecodeBatch: the LUW1 request decoder — every driven wire request is
// one such frame — never panics, and a frame it accepts is canonical: it
// re-encodes to the same bytes and decodes back to the same samples, float
// bits included. Seeded from the round-trip and hostile-input tables.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(AppendBatch(nil, sampleFixture()))
	for _, s := range sampleFixture() {
		f.Add(AppendBatch(nil, []trace.Sample{s}))
	}
	for _, tc := range hostileBatches(f) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc := AppendBatch(nil, samples)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		again, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if len(again) != len(samples) {
			t.Fatalf("round trip: %d samples, want %d", len(again), len(samples))
		}
		for i := range samples {
			if !sameSample(samples[i], again[i]) {
				t.Fatalf("sample %d changed in the round trip: %+v vs %+v", i, samples[i], again[i])
			}
		}
	})
}

// FuzzDecodeResponses: the LUR1 response decoder never panics, and a frame
// it accepts re-encodes to the same bytes and decodes back to the same
// responses, float bits included.
func FuzzDecodeResponses(f *testing.F) {
	f.Add(AppendResponses(nil, responseFixture()))
	f.Add(AppendResponses(nil, nil))
	for _, tc := range hostileResponses() {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resps, err := DecodeResponses(data)
		if err != nil {
			return
		}
		enc := AppendResponses(nil, resps)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		again, err := DecodeResponses(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if len(again) != len(resps) {
			t.Fatalf("round trip: %d responses, want %d", len(again), len(resps))
		}
		for i := range resps {
			if !sameResponse(resps[i], again[i]) {
				t.Fatalf("response %d changed in the round trip: %+v vs %+v", i, resps[i], again[i])
			}
		}
	})
}

// sameSample compares two samples field by field, floats by their bits, so
// NaN payloads count.
func sameSample(a, b trace.Sample) bool {
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) || a.Label != b.Label ||
		len(a.Dense) != len(b.Dense) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for i := range a.Dense {
		if math.Float64bits(a.Dense[i]) != math.Float64bits(b.Dense[i]) {
			return false
		}
	}
	for t := range a.Sparse {
		if len(a.Sparse[t]) != len(b.Sparse[t]) {
			return false
		}
		for k := range a.Sparse[t] {
			if a.Sparse[t][k] != b.Sparse[t][k] {
				return false
			}
		}
	}
	return true
}

func sameResponse(a, b core.Response) bool {
	return math.Float64bits(a.Prob) == math.Float64bits(b.Prob) &&
		math.Float64bits(a.Latency) == math.Float64bits(b.Latency) &&
		a.Replica == b.Replica
}
