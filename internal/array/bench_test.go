package array

import (
	"math/rand"
	"testing"
)

func benchChunk(b *testing.B, cells int) *Chunk {
	b.Helper()
	s := mustSchema("B",
		[]Attribute{{Name: "v", Type: Float64}, {Name: "i", Type: Int32}},
		[]Dimension{
			{Name: "t", Start: 0, End: Unbounded, ChunkInterval: 100},
			{Name: "x", Start: 0, End: 1023, ChunkInterval: 32},
		})
	c := NewChunk(s, ChunkCoord{0, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cells; i++ {
		c.AppendCell(Coord{rng.Int63n(100), rng.Int63n(32)}, []CellValue{
			{Float: rng.Float64()}, {Int: rng.Int63n(1000)},
		})
	}
	return c
}

func BenchmarkEncodeChunk(b *testing.B) {
	c := benchChunk(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeChunk(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeChunk(b *testing.B) {
	c := benchChunk(b, 1000)
	data, err := EncodeChunk(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeChunk(c.Schema, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkOf(b *testing.B) {
	s := benchChunk(b, 1).Schema
	cell := Coord{55, 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.ChunkOf(cell)
	}
}

func BenchmarkAppendCell(b *testing.B) {
	s := benchChunk(b, 1).Schema
	vals := []CellValue{{Float: 1.5}, {Int: 7}}
	b.ResetTimer()
	c := NewChunk(s, ChunkCoord{0, 0})
	for i := 0; i < b.N; i++ {
		c.AppendCell(Coord{int64(i % 100), int64(i % 32)}, vals)
	}
}

func BenchmarkFilter(b *testing.B) {
	c := benchChunk(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Filter(func(cell Coord) bool { return cell[1] >= 16 })
	}
}

func BenchmarkParseSchema(b *testing.B) {
	decl := "Band<si:int32, radiance:double>[time=0:*,1440, longitude=-180:180,12, latitude=-90:90,12]"
	for i := 0; i < b.N; i++ {
		if _, err := ParseSchema(decl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellIter measures a full scan over a chunk's occupied cells —
// the inner loop of every query operator — via the no-alloc CellInto (the
// string-key-era loop called Cell, allocating one Coord per cell).
func BenchmarkCellIter(b *testing.B) {
	c := benchChunk(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		cell := make(Coord, 0, 2)
		for j := 0; j < c.Len(); j++ {
			cell = c.CellInto(j, cell)
			sum += cell[0] + cell[1]
		}
	}
	_ = sum
}
