package emt

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"liveupdate/internal/tensor"
)

// sameTables reports whether two groups hold the same tables: names, shapes,
// versions and every weight bit.
func sameTables(a, b *Group) bool {
	return slices.EqualFunc(a.Tables, b.Tables, func(x, y *Table) bool {
		return x.Name == y.Name && x.Dim == y.Dim && x.Rows() == y.Rows() && x.version == y.version &&
			slices.EqualFunc(x.weights.Data, y.weights.Data, func(p, q float64) bool {
				return math.Float64bits(p) == math.Float64bits(q)
			})
	})
}

func checkpointBytes(tb testing.TB, g *Group) []byte {
	var buf bytes.Buffer
	if err := g.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// roundTripGroup is a three-table group with one table's version bumped.
func roundTripGroup() *Group {
	g := NewGroup(3, 4, 2, tensor.NewRNG(5))
	g.Tables[1].ScatterAdd([]int32{3}, make([]float64, 2))
	return g
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := roundTripGroup()
	got, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 3 || !sameTables(got, g) {
		t.Fatal("tables must round-trip: names, shapes, versions and weights bit-exactly")
	}
	for ti, gt := range got.Tables {
		if gt.dirtyCount != 0 {
			t.Fatalf("table %d: restored tables must start clean", ti)
		}
	}
}

// garbageCheckpoints are inputs rejected before any table header: short or
// wrong magic, and a real checkpoint with a corrupt version field.
func garbageCheckpoints(tb testing.TB) [][]byte {
	wrongVersion := checkpointBytes(tb, NewGroup(1, 4, 2, tensor.NewRNG(1)))
	wrongVersion[4] = 99
	return [][]byte{
		{},                            // empty
		[]byte("NOPE"),                // short magic
		[]byte("XXXXzzzzzzzzzzzzzzz"), // wrong magic
		wrongVersion,
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	for i, data := range garbageCheckpoints(t) {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// hostileCheckpoints are crafted inputs whose shape fields would demand
// absurd allocations: rejected at a header, or, for the largest table the
// caps allow, by the body that is not there.
func hostileCheckpoints(tb testing.TB) map[string][]byte {
	header := func(tables uint32, fields ...uint32) []byte {
		b := []byte(checkpointMagic)
		for _, v := range append([]uint32{checkpointVersion, tables}, fields...) {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	named := func(b []byte, rows, dim uint32) []byte { // name "t", then the shape
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = append(b, 't')
		b = binary.LittleEndian.AppendUint32(b, rows)
		return binary.LittleEndian.AppendUint32(b, dim)
	}
	// A real one-table checkpoint, its table count bumped to 2, and an absurd
	// second header: caught at ITS header, after the first table parsed.
	second := checkpointBytes(tb, NewGroup(1, 4, 2, tensor.NewRNG(3)))
	binary.LittleEndian.PutUint32(second[8:12], 2)
	return map[string][]byte{
		"zero tables":        header(0),
		"absurd table count": header(1 << 20),
		"absurd name length": header(1, 1<<30),
		"absurd table shape": named(header(1), 1<<31, 1<<31),
		"zero dim":           named(header(1), 16, 0),
		"absurd second":      named(second, 1<<31, 1<<31),
		// 32 bytes: header, an unnamed maxTableElems×1 table, its version, no
		// weights.
		"no body": binary.LittleEndian.AppendUint64(header(1, 0, maxTableElems, 1), 0),
	}
}

func TestCheckpointRejectsHostileHeaders(t *testing.T) {
	for name, data := range hostileCheckpoints(t) {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: hostile header must be rejected", name)
		}
	}
}

// A header that passes the caps but brings no weights fails having allocated
// what its 32 bytes pay for, not the 1 GiB table they claim.
func TestCheckpointShortBodyAllocatesLittle(t *testing.T) {
	data := hostileCheckpoints(t)["no body"]
	if len(data) != 32 {
		t.Fatalf("fixture is %d bytes, want 32", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a table without weights must be rejected")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting a 32-byte checkpoint allocated %d bytes, want < 1 MB", n)
	}
}

// truncatedCheckpoints cuts a real two-table checkpoint inside its header,
// its first table, and its last weight.
func truncatedCheckpoints(tb testing.TB) [][]byte {
	data := checkpointBytes(tb, NewGroup(2, 4, 2, tensor.NewRNG(2)))
	var cuts [][]byte
	for _, cut := range []int{5, 12, 30, len(data) / 2, len(data) - 3} {
		cuts = append(cuts, data[:cut])
	}
	return cuts
}

func TestCheckpointTruncated(t *testing.T) {
	for _, data := range truncatedCheckpoints(t) {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Fatalf("truncation at %d must error", len(data))
		}
	}
}

// FuzzReadCheckpoint feeds ReadCheckpoint arbitrary bytes, seeded with the
// inputs of the checkpoint tests above. It must never panic, and a
// checkpoint it accepts must write and read back to the same tables.
func FuzzReadCheckpoint(f *testing.F) {
	f.Add(checkpointBytes(f, roundTripGroup()))
	for _, data := range garbageCheckpoints(f) {
		f.Add(data)
	}
	for _, data := range hostileCheckpoints(f) {
		f.Add(data)
	}
	for _, data := range truncatedCheckpoints(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadCheckpoint(bytes.NewReader(checkpointBytes(t, g)))
		if err != nil {
			t.Fatalf("reading back an accepted checkpoint: %v", err)
		}
		if !sameTables(again, g) {
			t.Fatal("write∘read is not the identity on an accepted checkpoint")
		}
	})
}
