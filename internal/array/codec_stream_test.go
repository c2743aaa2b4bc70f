package array

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// TestChunkBatchWriterMatchesEncodeChunkBatch pins the streaming encoder's
// output byte-identical to the one-shot batch encoder: the writer is pure
// framing, so pointing it at a buffer must reproduce EncodeChunkBatch
// exactly — the property the TCP wire protocol relies on.
func TestChunkBatchWriterMatchesEncodeChunkBatch(t *testing.T) {
	a, b := batchSchemas()
	chunks := []*Chunk{
		fillChunk(t, a, ChunkCoord{0, 0}, 7),
		fillChunk(t, a, ChunkCoord{1, 1}, 13),
	}
	bc := NewChunk(b, ChunkCoord{1, 0})
	bc.AppendCell(Coord{5, 0}, []CellValue{{Float: 2.5}})
	chunks = append(chunks, bc)

	want, err := EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	bw, err := NewChunkBatchWriter(&got, len(chunks))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := bw.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed batch differs from EncodeChunkBatch (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestChunkBatchWriterCountEnforced pins the declared-count contract: extra
// writes are rejected and Close refuses a short batch, so a truncated
// stream can never pass for a complete one.
func TestChunkBatchWriterCountEnforced(t *testing.T) {
	a := testSchema()
	ch := fillChunk(t, a, ChunkCoord{0, 0}, 3)

	var buf bytes.Buffer
	bw, err := NewChunkBatchWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("Close accepted a batch short of its declared count")
	}
	if err := bw.Write(ch); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(fillChunk(t, a, ChunkCoord{1, 1}, 2)); err == nil {
		t.Fatal("Write accepted a chunk beyond the declared count")
	}
}

// TestChunkBatchStreamDecodesOffArbitraryReaders drives the stream decoder
// through a pathological one-byte-at-a-time reader — the socket case where
// frames arrive in arbitrary fragments — and requires payload-identical
// chunks.
func TestChunkBatchStreamDecodesOffArbitraryReaders(t *testing.T) {
	a, b := batchSchemas()
	bc := NewChunk(b, ChunkCoord{0, 1})
	bc.AppendCell(Coord{2, 6}, []CellValue{{Float: -3.25}})
	bc.AppendCell(Coord{3, 7}, []CellValue{{Float: 11.5}})
	chunks := []*Chunk{
		fillChunk(t, a, ChunkCoord{0, 0}, 9),
		bc,
	}
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
	d, err := NewChunkBatchStream(lookup, iotest.OneByteReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(chunks) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(chunks))
	}
	for i, want := range chunks {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		we, _ := EncodeChunk(want)
		ge, _ := EncodeChunk(got)
		if !bytes.Equal(we, ge) {
			t.Fatalf("chunk %d differs after stream decode", i)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

// TestChunkBatchStreamTruncated pins that a stream cut mid-chunk surfaces
// a decode error, not a silent short batch.
func TestChunkBatchStreamTruncated(t *testing.T) {
	a := testSchema()
	chunks := []*Chunk{fillChunk(t, a, ChunkCoord{0, 0}, 9)}
	wire, err := EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (*Schema, bool) { return a, name == a.Name }
	d, err := NewChunkBatchStream(lookup, bytes.NewReader(wire[:len(wire)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next on truncated stream = %v, want decode error", err)
	}
}
