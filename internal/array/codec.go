package array

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Chunk wire format (little endian):
//
//	u32 magic "ACNK"
//	u16 version
//	u16 nDims, u16 nAttrs, u32 nCells
//	nDims × i64  chunk coordinate
//	nDims × (nCells × i64) dimension columns
//	per attribute: u8 type tag, then nCells values
//	  int family: i64 each; float family: f64 bits; string: u16 len + bytes
//
// The codec exists so migrations between nodes move real serialized bytes —
// the quantity the elasticity cost model charges for — and so chunk stores
// can round-trip payloads.
//
// Chunk-batch wire format (the per-receiver rebalance message):
//
//	u32 magic "ABAT"
//	u16 version
//	u32 nChunks
//	per chunk: u16 len + array name bytes, then the chunk payload above
//
// Batching amortises the message framing and — because every chunk of the
// batch encodes into one contiguous buffer — the allocation and copying a
// per-chunk round-trip pays once per chunk.

const (
	chunkMagic   = 0x41434e4b // "ACNK"
	chunkVersion = 1
	batchMagic   = 0x41424154 // "ABAT"
	batchVersion = 1

	// decodePrealloc caps the values a decoder reserves per column from
	// the header's nCells before any value has arrived; a longer column
	// grows as its bytes are read. Honest chunks sit far below it and keep
	// one exact allocation, while a header that lies costs no more than
	// the stream delivers.
	decodePrealloc = 1 << 16
)

// EncodeChunk serialises a chunk payload (schema identity travels out of
// band via the ChunkRef, which carries the array name).
func EncodeChunk(c *Chunk) ([]byte, error) {
	var b bytes.Buffer
	if err := encodeChunkInto(&b, c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// encodeChunkInto appends one chunk payload to b — the shared body of the
// single-chunk and batch encoders.
func encodeChunkInto(b *bytes.Buffer, c *Chunk) error {
	w := func(v interface{}) {
		_ = binary.Write(b, binary.LittleEndian, v)
	}
	w(uint32(chunkMagic))
	w(uint16(chunkVersion))
	w(uint16(len(c.DimCols)))
	w(uint16(len(c.AttrCols)))
	w(uint32(c.Len()))
	for _, v := range c.Coords {
		w(v)
	}
	for _, col := range c.DimCols {
		for _, v := range col {
			w(v)
		}
	}
	for _, col := range c.AttrCols {
		w(uint8(col.Type()))
		switch col := col.(type) {
		case *IntColumn:
			for _, v := range col.Vals {
				w(v)
			}
		case *FloatColumn:
			for _, v := range col.Vals {
				w(v)
			}
		case *StrColumn:
			for _, v := range col.Vals {
				if len(v) > 0xffff {
					return fmt.Errorf("array: string value too long (%d bytes)", len(v))
				}
				w(uint16(len(v)))
				b.WriteString(v)
			}
		default:
			return fmt.Errorf("array: cannot encode column type %T", col)
		}
	}
	return nil
}

// DecodeChunk reverses EncodeChunk. The schema must match the one the chunk
// was encoded under (same dims and attribute types).
func DecodeChunk(s *Schema, data []byte) (*Chunk, error) {
	r := bytes.NewReader(data)
	c, err := decodeChunkFrom(r, s)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("array: %d trailing bytes after chunk", r.Len())
	}
	return c, nil
}

// decodeChunkFrom reads one chunk payload off r — the shared body of the
// single-chunk and batch decoders. It consumes exactly the chunk's bytes,
// leaving r positioned at whatever follows. Any io.Reader works (the TCP
// transport hands it a socket-backed segment stream); buffer-backed callers
// do their own trailing-byte accounting.
func decodeChunkFrom(r io.Reader, s *Schema) (*Chunk, error) {
	rd := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	var magic uint32
	var version, nDims, nAttrs uint16
	var nCells uint32
	if err := rd(&magic); err != nil || magic != chunkMagic {
		return nil, fmt.Errorf("array: bad chunk magic")
	}
	if err := rd(&version); err != nil || version != chunkVersion {
		return nil, fmt.Errorf("array: unsupported chunk version %d", version)
	}
	if err := rd(&nDims); err != nil {
		return nil, err
	}
	if err := rd(&nAttrs); err != nil {
		return nil, err
	}
	if err := rd(&nCells); err != nil {
		return nil, err
	}
	if int(nDims) != len(s.Dims) || int(nAttrs) != len(s.Attrs) {
		return nil, fmt.Errorf("array: chunk encoded with %d dims/%d attrs, schema %s has %d/%d",
			nDims, nAttrs, s.Name, len(s.Dims), len(s.Attrs))
	}
	cc := make(ChunkCoord, nDims)
	for i := range cc {
		if err := rd(&cc[i]); err != nil {
			return nil, err
		}
	}
	if !s.ValidChunk(cc) {
		return nil, fmt.Errorf("array: decoded chunk coordinate %v outside %s grid", cc, s.Name)
	}
	c := NewChunk(s, cc)
	reserve := min(int(nCells), decodePrealloc)
	for d := 0; d < int(nDims); d++ {
		col := make([]int64, 0, reserve)
		for range nCells {
			col = append(col, 0)
			if err := rd(&col[len(col)-1]); err != nil {
				return nil, err
			}
		}
		c.DimCols[d] = col
	}
	for a := 0; a < int(nAttrs); a++ {
		var tag uint8
		if err := rd(&tag); err != nil {
			return nil, err
		}
		t := DataType(tag)
		if t != s.Attrs[a].Type {
			return nil, fmt.Errorf("array: chunk attr %d encoded as %v, schema says %v", a, t, s.Attrs[a].Type)
		}
		switch col := c.AttrCols[a].(type) {
		case *IntColumn:
			col.Vals = make([]int64, 0, reserve)
			for range nCells {
				col.Vals = append(col.Vals, 0)
				if err := rd(&col.Vals[len(col.Vals)-1]); err != nil {
					return nil, err
				}
			}
		case *FloatColumn:
			col.Vals = make([]float64, 0, reserve)
			for range nCells {
				col.Vals = append(col.Vals, 0)
				if err := rd(&col.Vals[len(col.Vals)-1]); err != nil {
					return nil, err
				}
			}
		case *StrColumn:
			col.Vals = make([]string, 0, reserve)
			buf := make([]byte, 0, 64)
			for range nCells {
				var n uint16
				if err := rd(&n); err != nil {
					return nil, err
				}
				if cap(buf) < int(n) {
					buf = make([]byte, n)
				}
				buf = buf[:n]
				if _, err := io.ReadFull(r, buf); err != nil {
					return nil, err
				}
				col.Vals = append(col.Vals, string(buf))
			}
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ChunkBatchWriter emits the "ABAT" chunk-batch framing one chunk at a
// time into any io.Writer — the streaming counterpart of ChunkBatchReader.
// A rebalance sender feeds it chunk by chunk, so peak encode memory is one
// framed chunk (the writer's scratch buffer) plus whatever the destination
// writer buffers, instead of the whole batch. The TCP transport points it
// at an io.Pipe whose reader ships each write as it lands, so the sender
// end of a migration holds one chunk at a time no matter how large the
// batch is.
//
// The chunk count is declared up front (it leads the framing, exactly as
// EncodeChunkBatch writes it); Close verifies every declared chunk was
// written, so a short stream can never masquerade as a complete batch.
type ChunkBatchWriter struct {
	w       io.Writer
	n       uint32 // declared batch size, from the header
	written uint32 // chunks framed so far
	buf     bytes.Buffer
}

// NewChunkBatchWriter writes the batch header for n chunks and returns a
// writer positioned at the first chunk frame.
func NewChunkBatchWriter(w io.Writer, n int) (*ChunkBatchWriter, error) {
	if n < 0 || uint64(n) > 0xffffffff {
		return nil, fmt.Errorf("array: batch of %d chunks out of range", n)
	}
	bw := &ChunkBatchWriter{w: w, n: uint32(n)}
	_ = binary.Write(&bw.buf, binary.LittleEndian, uint32(batchMagic))
	_ = binary.Write(&bw.buf, binary.LittleEndian, uint16(batchVersion))
	_ = binary.Write(&bw.buf, binary.LittleEndian, uint32(n))
	if err := bw.flush(); err != nil {
		return nil, err
	}
	return bw, nil
}

// flush hands the scratch buffer to the destination writer and resets it.
func (bw *ChunkBatchWriter) flush() error {
	if _, err := bw.w.Write(bw.buf.Bytes()); err != nil {
		return err
	}
	bw.buf.Reset()
	return nil
}

// Write frames one chunk — name length, name, "ACNK" payload — and flushes
// it to the destination writer.
func (bw *ChunkBatchWriter) Write(c *Chunk) error {
	if bw.written == bw.n {
		return fmt.Errorf("array: batch writer declared %d chunks, got more", bw.n)
	}
	name := c.Schema.Name
	if len(name) > 0xffff {
		return fmt.Errorf("array: array name too long (%d bytes)", len(name))
	}
	bw.buf.Reset()
	_ = binary.Write(&bw.buf, binary.LittleEndian, uint16(len(name)))
	bw.buf.WriteString(name)
	if err := encodeChunkInto(&bw.buf, c); err != nil {
		return err
	}
	if err := bw.flush(); err != nil {
		return err
	}
	bw.written++
	return nil
}

// Close verifies the declared chunk count was delivered. It does not close
// the destination writer.
func (bw *ChunkBatchWriter) Close() error {
	if bw.written != bw.n {
		return fmt.Errorf("array: batch writer declared %d chunks, wrote %d", bw.n, bw.written)
	}
	return nil
}

// EncodeChunkBatch serialises several chunks — a rebalance receiver's whole
// batch — into one wire message. Unlike EncodeChunk the array name travels
// in band per chunk, because one migration batch may mix arrays; the
// payloads land in one contiguous buffer, which is what makes the batched
// round-trip cheaper than len(chunks) single-chunk trips. It is the
// buffer-backed convenience over ChunkBatchWriter, byte-identical to
// streaming the same chunks.
func EncodeChunkBatch(chunks []*Chunk) ([]byte, error) {
	var b bytes.Buffer
	bw, err := NewChunkBatchWriter(&b, len(chunks))
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		if err := bw.Write(c); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// ChunkBatchReader decodes a chunk-batch message one chunk at a time off
// the shared "ABAT" buffer — the streaming counterpart of DecodeChunkBatch.
// A rebalance receiver drains it with Next, storing each chunk as it
// materialises, so peak memory for a large migration batch is one decoded
// chunk plus the wire buffer instead of the whole batch twice.
type ChunkBatchReader struct {
	r       io.Reader
	rem     func() int // trailing-byte check for buffer-backed batches; nil for streams
	lookup  func(name string) (*Schema, bool)
	n       uint32 // chunks in the batch, from the header
	decoded uint32 // chunks handed out so far
	nameBuf []byte
}

// NewChunkBatchReader validates the batch framing and returns a reader
// positioned at the first chunk. The data buffer must not be mutated until
// the reader is drained.
func NewChunkBatchReader(lookup func(name string) (*Schema, bool), data []byte) (*ChunkBatchReader, error) {
	r := bytes.NewReader(data)
	d, err := NewChunkBatchStream(lookup, r)
	if err != nil {
		return nil, err
	}
	// A buffer-backed batch knows its exact extent, so Next can reject
	// trailing garbage after the final chunk; a socket stream cannot (its
	// framing ends where the transport says it does).
	d.rem = r.Len
	return d, nil
}

// NewChunkBatchStream validates the batch framing at the head of r and
// returns a reader that decodes chunk frames directly off the stream — the
// receive half of a transport push, where the batch arrives over a socket
// and never materialises as one contiguous buffer. Unlike the buffer-backed
// constructor it cannot detect bytes trailing the final chunk; the caller's
// framing bounds the stream.
func NewChunkBatchStream(lookup func(name string) (*Schema, bool), r io.Reader) (*ChunkBatchReader, error) {
	rd := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	var magic uint32
	var version uint16
	var n uint32
	if err := rd(&magic); err != nil || magic != batchMagic {
		return nil, fmt.Errorf("array: bad chunk-batch magic")
	}
	if err := rd(&version); err != nil || version != batchVersion {
		return nil, fmt.Errorf("array: unsupported chunk-batch version %d", version)
	}
	if err := rd(&n); err != nil {
		return nil, err
	}
	return &ChunkBatchReader{r: r, lookup: lookup, n: n, nameBuf: make([]byte, 0, 64)}, nil
}

// Len returns the total number of chunks the batch carries.
func (d *ChunkBatchReader) Len() int { return int(d.n) }

// Remaining returns how many chunks have not been decoded yet.
func (d *ChunkBatchReader) Remaining() int { return int(d.n - d.decoded) }

// Next decodes and returns the next chunk, or io.EOF once the batch is
// drained (after verifying nothing trails the final chunk). Any other
// error means the batch is corrupt; the reader is then unusable.
func (d *ChunkBatchReader) Next() (*Chunk, error) {
	if d.decoded == d.n {
		if d.rem != nil && d.rem() != 0 {
			return nil, fmt.Errorf("array: %d trailing bytes after chunk batch", d.rem())
		}
		return nil, io.EOF
	}
	i := d.decoded
	var nameLen uint16
	if err := binary.Read(d.r, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if cap(d.nameBuf) < int(nameLen) {
		d.nameBuf = make([]byte, nameLen)
	}
	d.nameBuf = d.nameBuf[:nameLen]
	if _, err := io.ReadFull(d.r, d.nameBuf); err != nil {
		return nil, err
	}
	s, ok := d.lookup(string(d.nameBuf))
	if !ok {
		return nil, fmt.Errorf("array: batch chunk %d of unknown array %q", i, d.nameBuf)
	}
	c, err := decodeChunkFrom(d.r, s)
	if err != nil {
		return nil, fmt.Errorf("array: batch chunk %d of %s: %w", i, s.Name, err)
	}
	d.decoded++
	return c, nil
}

// DecodeChunkBatch reverses EncodeChunkBatch, resolving each chunk's schema
// through lookup (typically a cluster's schema registry). Chunks come back
// in encoding order, fully materialised; callers that can consume chunks
// one at a time should drain a ChunkBatchReader instead.
func DecodeChunkBatch(lookup func(name string) (*Schema, bool), data []byte) ([]*Chunk, error) {
	d, err := NewChunkBatchReader(lookup, data)
	if err != nil {
		return nil, err
	}
	out := make([]*Chunk, 0, d.Len())
	for {
		c, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
}
