package array_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/array"
	"repro/internal/workload"
)

// TestDecodeChunkDeclaredCellsUntrusted: the header's cell count comes off
// the wire, so a header claiming 2^32-1 cells with no values behind it must
// fail on the missing bytes without first reserving 32 GiB per column.
func TestDecodeChunkDeclaredCellsUntrusted(t *testing.T) {
	gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Schemas()[0]
	var msg []byte
	msg = binary.LittleEndian.AppendUint32(msg, 0x41434e4b) // "ACNK"
	msg = binary.LittleEndian.AppendUint16(msg, 1)
	msg = binary.LittleEndian.AppendUint16(msg, uint16(len(s.Dims)))
	msg = binary.LittleEndian.AppendUint16(msg, uint16(len(s.Attrs)))
	msg = binary.LittleEndian.AppendUint32(msg, math.MaxUint32)
	for range s.Dims {
		msg = binary.LittleEndian.AppendUint64(msg, 0) // chunk (0, 0, 0)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = array.DecodeChunk(s, msg)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header claiming 2^32-1 cells with no values decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a bare header claiming 2^32-1 cells allocated %d bytes, want under 1 MiB", grew)
	}
}

// TestDecodeChunkGrowsPastReserve: an honest chunk with more cells than the
// decoder reserves up front still round-trips.
func TestDecodeChunkGrowsPastReserve(t *testing.T) {
	const cells = 70000
	s, err := array.NewSchema("Long",
		[]array.Attribute{{Name: "i", Type: array.Int64}, {Name: "f", Type: array.Float64}, {Name: "s", Type: array.String}},
		[]array.Dimension{{Name: "x", Start: 0, End: cells - 1, ChunkInterval: cells}})
	if err != nil {
		t.Fatal(err)
	}
	c := array.NewChunk(s, array.ChunkCoord{0})
	for x := int64(0); x < cells; x++ {
		c.AppendCell(array.Coord{x}, []array.CellValue{{Int: x}, {Float: float64(x) / 2}, {Str: "v"}})
	}
	enc, err := array.EncodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := array.DecodeChunk(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := array.EncodeChunk(back)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != cells || !bytes.Equal(reenc, enc) {
		t.Fatal("a chunk longer than the decode reserve did not round-trip")
	}
}
