package emt

// Checkpoint serialization for embedding tables: the binary format used for
// Day-1 checkpoints and full-parameter sync payloads. Layout (little endian):
//
//	magic "EMTC" | version u32 | tableCount u32
//	per table: nameLen u32 | name | rows u32 | dim u32 | version u64 |
//	           rows×dim float64 weights
import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"liveupdate/internal/tensor"
)

const (
	checkpointMagic   = "EMTC"
	checkpointVersion = 1

	// Hostile-input allocation caps: ReadCheckpoint validates every header
	// field against these BEFORE allocating, and grows a table's storage only
	// as its weights arrive, so a tiny crafted header cannot force a
	// multi-gigabyte allocation. The largest legitimate profiles are
	// thousands of rows × tens of dims; the caps leave orders of magnitude
	// of headroom while bounding a single table's weights at 1 GiB and a
	// whole checkpoint at 4 GiB of float64 storage.
	maxCheckpointTables = 1 << 16
	maxCheckpointName   = 1 << 12
	maxTableElems       = 1 << 27 // rows×dim per table (1 GiB of float64)
	maxCheckpointElems  = 1 << 29 // rows×dim summed over tables (4 GiB)
)

// WriteCheckpoint serializes the group's tables to w.
func (g *Group) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("emt: write magic: %w", err)
	}
	if err := writeU32(bw, checkpointVersion); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(g.Tables))); err != nil {
		return err
	}
	for _, t := range g.Tables {
		if err := writeU32(bw, uint32(len(t.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Name); err != nil {
			return fmt.Errorf("emt: write name: %w", err)
		}
		if err := writeU32(bw, uint32(t.Rows())); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(t.Dim)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, t.version); err != nil {
			return fmt.Errorf("emt: write version: %w", err)
		}
		buf := make([]byte, 8)
		for _, v := range t.weights.Data {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("emt: write weights: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint,
// returning a fresh Group with a clean dirty set.
func ReadCheckpoint(r io.Reader) (*Group, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("emt: read magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("emt: bad checkpoint magic %q", magic)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("emt: unsupported checkpoint version %d", ver)
	}
	count, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxCheckpointTables {
		return nil, fmt.Errorf("emt: implausible table count %d (max %d)", count, maxCheckpointTables)
	}
	g := &Group{}
	var totalElems uint64
	for i := uint32(0); i < count; i++ {
		nameLen, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nameLen > maxCheckpointName {
			return nil, fmt.Errorf("emt: implausible name length %d (max %d)", nameLen, maxCheckpointName)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("emt: read name: %w", err)
		}
		rows, err := readU32(br)
		if err != nil {
			return nil, err
		}
		dim, err := readU32(br)
		if err != nil {
			return nil, err
		}
		elems := uint64(rows) * uint64(dim)
		if rows == 0 || dim == 0 || elems > maxTableElems {
			return nil, fmt.Errorf("emt: implausible table shape %dx%d (max %d elements)",
				rows, dim, maxTableElems)
		}
		if totalElems += elems; totalElems > maxCheckpointElems {
			return nil, fmt.Errorf("emt: implausible checkpoint: %d cumulative elements (max %d)",
				totalElems, maxCheckpointElems)
		}
		var version uint64
		if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
			return nil, fmt.Errorf("emt: read version: %w", err)
		}
		data, err := readWeights(br, int(elems))
		if err != nil {
			return nil, err
		}
		// The bookkeeping is sized only once the bytes have paid for the rows.
		g.Tables = append(g.Tables, &Table{
			Name:    string(name),
			Dim:     int(dim),
			weights: &tensor.Matrix{Rows: int(rows), Cols: int(dim), Data: data},
			version: version,
			dirty:   newDirty(int(rows)),
		})
	}
	return g, nil
}

// readChunk is how many weights readWeights decodes per read (64 KiB).
const readChunk = 1 << 13

// readWeights decodes n little-endian float64s from r a chunk at a time, into
// a slice grown by what has been read: a header's claim alone never sizes an
// allocation, so a stream that ends early fails having allocated about twice
// what it carried, plus one chunk.
func readWeights(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 8*min(n, readChunk))
	var data []float64
	for len(data) < n {
		k := min(n-len(data), readChunk)
		if len(data)+k > cap(data) {
			grown := make([]float64, len(data), min(n, max(2*cap(data), readChunk)))
			copy(grown, data)
			data = grown
		}
		b := buf[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("emt: read weights: %w", err)
		}
		for i := 0; i < k; i++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return data, nil
}

func writeU32(w io.Writer, v uint32) error {
	if err := binary.Write(w, binary.LittleEndian, v); err != nil {
		return fmt.Errorf("emt: write u32: %w", err)
	}
	return nil
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, fmt.Errorf("emt: read u32: %w", err)
	}
	return v, nil
}
