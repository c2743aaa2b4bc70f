package array_test

import (
	"fmt"

	"repro/internal/array"
)

// ExampleParseSchema declares the paper's example array from Section 2.
func ExampleParseSchema() {
	s, err := array.ParseSchema("A<i:int32, j:float>[x=1:4,2, y=1:4,2]")
	if err != nil {
		panic(err)
	}
	fmt.Println(s)
	fmt.Println("dims:", len(s.Dims), "chunks per dim:", s.Dims[0].NumChunks())
	// Output:
	// A<i:int32,j:float>[x=1:4,2, y=1:4,2]
	// dims: 2 chunks per dim: 2
}

// ExampleSchema_ChunkOf shows the cell → chunk mapping.
func ExampleSchema_ChunkOf() {
	s, err := array.ParseSchema("A<v:double>[x=1:4,2, y=1:4,2]")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.ChunkOf(array.Coord{1, 1}))
	fmt.Println(s.ChunkOf(array.Coord{4, 4}))
	// Output:
	// [0/0]
	// [1/1]
}

// ExampleChunk builds the sparse chunk from the paper's Figure 1: only
// non-empty cells are stored, so the physical size tracks occupancy.
func ExampleChunk() {
	s, err := array.ParseSchema("A<i:int32, j:float>[x=1:4,2, y=1:4,2]")
	if err != nil {
		panic(err)
	}
	ch := array.NewChunk(s, array.ChunkCoord{0, 0})
	ch.AppendCell(array.Coord{1, 1}, []array.CellValue{{Int: 1}, {Float: 1.3}})
	ch.AppendCell(array.Coord{2, 2}, []array.CellValue{{Int: 9}, {Float: 2.7}})
	fmt.Println("cells:", ch.Len(), "bytes:", ch.SizeBytes())
	// Output:
	// cells: 2 bytes: 48
}
