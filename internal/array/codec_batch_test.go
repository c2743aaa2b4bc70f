package array

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// batchSchemas builds two congruent schemas so a batch can mix arrays, the
// way one rebalance receiver's batch can.
func batchSchemas() (*Schema, *Schema) {
	a := testSchema()
	b := mustSchema("B2",
		[]Attribute{{Name: "v", Type: Float64}},
		[]Dimension{
			{Name: "x", Start: 0, End: 9, ChunkInterval: 5},
			{Name: "y", Start: 0, End: 9, ChunkInterval: 5},
		})
	return a, b
}

func TestEncodeDecodeChunkBatchRoundTrip(t *testing.T) {
	a, b := batchSchemas()
	chunks := []*Chunk{
		fillChunk(t, a, ChunkCoord{0, 0}, 7),
		fillChunk(t, a, ChunkCoord{1, 1}, 13),
	}
	bc := NewChunk(b, ChunkCoord{1, 0})
	bc.AppendCell(Coord{5, 0}, []CellValue{{Float: 2.5}})
	chunks = append(chunks, bc)

	wire, err := EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (*Schema, bool) {
		switch name {
		case a.Name:
			return a, true
		case b.Name:
			return b, true
		}
		return nil, false
	}
	back, err := DecodeChunkBatch(lookup, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(chunks) {
		t.Fatalf("decoded %d chunks, want %d", len(back), len(chunks))
	}
	// Each decoded chunk must be payload-identical to a single-chunk
	// round-trip of the original: the batch is pure framing.
	for i, c := range chunks {
		want, err := EncodeChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeChunk(back[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("chunk %d payload diverged through the batch codec", i)
		}
		if back[i].Schema.Name != c.Schema.Name || !slices.Equal(back[i].Coords, c.Coords) {
			t.Errorf("chunk %d identity diverged: %s%v vs %s%v",
				i, back[i].Schema.Name, back[i].Coords, c.Schema.Name, c.Coords)
		}
	}
}

func TestEncodeChunkBatchEmpty(t *testing.T) {
	wire, err := EncodeChunkBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunkBatch(func(string) (*Schema, bool) { return nil, false }, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty batch decoded to %d chunks", len(back))
	}
}

// TestChunkBatchReaderStreams drains a mixed-array batch one chunk at a
// time and pins every step — counts, identities, payloads and the EOF
// tail-check — against the all-at-once decode.
func TestChunkBatchReaderStreams(t *testing.T) {
	a, b := batchSchemas()
	chunks := []*Chunk{
		fillChunk(t, a, ChunkCoord{0, 0}, 7),
		fillChunk(t, a, ChunkCoord{1, 1}, 13),
	}
	bc := NewChunk(b, ChunkCoord{1, 0})
	bc.AppendCell(Coord{5, 0}, []CellValue{{Float: 2.5}})
	chunks = append(chunks, bc)
	wire, err := EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (*Schema, bool) {
		switch name {
		case a.Name:
			return a, true
		case b.Name:
			return b, true
		}
		return nil, false
	}
	dec, err := NewChunkBatchReader(lookup, wire)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != len(chunks) {
		t.Fatalf("reader reports %d chunks, want %d", dec.Len(), len(chunks))
	}
	for i, c := range chunks {
		if got := dec.Remaining(); got != len(chunks)-i {
			t.Fatalf("before chunk %d: %d remaining, want %d", i, got, len(chunks)-i)
		}
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		want, _ := EncodeChunk(c)
		enc, _ := EncodeChunk(got)
		if !bytes.Equal(enc, want) {
			t.Errorf("chunk %d payload diverged through the streaming decode", i)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("drained reader should return io.EOF, got %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatal("drained reader reports chunks remaining")
	}
}

// TestChunkBatchReaderTrailingBytes: the tail check fires on the Next that
// crosses the end, exactly like the all-at-once decode.
func TestChunkBatchReaderTrailingBytes(t *testing.T) {
	a, _ := batchSchemas()
	lookup := func(name string) (*Schema, bool) {
		if name == a.Name {
			return a, true
		}
		return nil, false
	}
	wire, err := EncodeChunkBatch([]*Chunk{fillChunk(t, a, ChunkCoord{0, 1}, 4)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewChunkBatchReader(lookup, append(append([]byte(nil), wire...), 0xff))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err == nil || err == io.EOF {
		t.Fatalf("trailing bytes should fail the final Next, got %v", err)
	}
}

func TestDecodeChunkBatchRejects(t *testing.T) {
	a, _ := batchSchemas()
	lookup := func(name string) (*Schema, bool) {
		if name == a.Name {
			return a, true
		}
		return nil, false
	}
	if _, err := DecodeChunkBatch(lookup, []byte{9, 9, 9}); err == nil {
		t.Error("garbage should not decode")
	}
	wire, err := EncodeChunkBatch([]*Chunk{fillChunk(t, a, ChunkCoord{0, 1}, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChunkBatch(lookup, wire[:len(wire)-3]); err == nil {
		t.Error("truncated batch should not decode")
	}
	if _, err := DecodeChunkBatch(lookup, append(append([]byte(nil), wire...), 0)); err == nil {
		t.Error("trailing bytes should not decode")
	}
	if _, err := DecodeChunkBatch(func(string) (*Schema, bool) { return nil, false }, wire); err == nil {
		t.Error("unknown array should not decode")
	}
}
