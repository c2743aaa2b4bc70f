package array

import (
	"fmt"
	"sort"
)

// Chunk is an n-dimensional subarray: the unit of I/O, memory allocation and
// — for the elasticity layer — placement and migration. A chunk stores only
// its non-empty cells, columnar: one int64 column per dimension holding the
// cell coordinates, and one vertical segment (Column) per attribute.
//
// Physical chunk size is therefore a function of occupancy, not of the
// declared chunk volume, which is what makes storage skew (dense port
// chunks, empty open-ocean chunks) visible to the partitioners.
type Chunk struct {
	Schema *Schema
	Coords ChunkCoord

	// DimCols[d][i] is the d-th coordinate of occupied cell i.
	DimCols [][]int64
	// AttrCols[a] is the vertical segment of attribute a.
	AttrCols []Column

	// key is the packed identity, computed once at construction so the
	// placement hot path (catalog inserts, ownership lookups) never
	// rebuilds it.
	key ChunkKey
}

// NewChunk returns an empty chunk at the given grid position.
func NewChunk(s *Schema, cc ChunkCoord) *Chunk { return NewChunkCap(s, cc, 0) }

// NewChunkCap returns an empty chunk preallocated for n cells: dimension
// and attribute columns grow once instead of doubling through repeated
// appends. n is a hint, not a limit.
func NewChunkCap(s *Schema, cc ChunkCoord, n int) *Chunk {
	if !s.ValidChunk(cc) {
		panic(fmt.Sprintf("array: chunk coordinate %v outside %s grid", cc, s.Name))
	}
	c := &Chunk{Schema: s, Coords: cc.Clone(), key: MakeChunkKey(s.ID(), cc.Packed())}
	c.DimCols = make([][]int64, len(s.Dims))
	for d := range c.DimCols {
		c.DimCols[d] = make([]int64, 0, n)
	}
	c.AttrCols = make([]Column, len(s.Attrs))
	for i, a := range s.Attrs {
		c.AttrCols[i] = NewColumnCap(a.Type, n)
	}
	return c
}

// Ref returns the chunk's global identity in reference form.
func (c *Chunk) Ref() ChunkRef { return ChunkRef{Array: c.Schema.Name, Coords: c.Coords} }

// Key returns the chunk's packed identity without allocating. For
// hand-assembled chunks (no NewChunk) it packs on demand without caching,
// so the method stays safe for concurrent use. The cached fast path is
// small enough to inline into ingest loops.
func (c *Chunk) Key() ChunkKey {
	if c.key.IsZero() {
		return c.keySlow()
	}
	return c.key
}

func (c *Chunk) keySlow() ChunkKey { return c.Ref().Packed() }

// Len returns the number of occupied cells.
func (c *Chunk) Len() int {
	if len(c.DimCols) == 0 {
		return 0
	}
	return len(c.DimCols[0])
}

// SizeBytes returns the physical footprint: coordinate columns plus every
// vertical attribute segment.
func (c *Chunk) SizeBytes() int64 {
	var n int64
	for range c.DimCols {
		n += int64(c.Len()) * 8
	}
	for _, col := range c.AttrCols {
		n += col.SizeBytes()
	}
	return n
}

// ProjectedSizeBytes returns coordinate columns plus the named attribute
// segments only — the bytes a query touching that attribute subset scans.
func (c *Chunk) ProjectedSizeBytes(attrs []int) int64 {
	n := int64(len(c.DimCols)) * int64(c.Len()) * 8
	for _, a := range attrs {
		n += c.AttrCols[a].SizeBytes()
	}
	return n
}

// CellInto writes the coordinate of occupied cell i into buf (reusing its
// capacity) and returns it, so scan loops need no allocation per cell.
// Pass the previous iteration's return value as buf.
func (c *Chunk) CellInto(i int, buf Coord) Coord {
	buf = buf[:0]
	for d := range c.DimCols {
		buf = append(buf, c.DimCols[d][i])
	}
	return buf
}

// CellValue is one attribute value of a cell being appended.
type CellValue struct {
	Int   int64
	Float float64
	Str   string
}

// AppendCell adds one occupied cell with the given per-attribute values.
// The value field read from each CellValue follows the attribute's type.
func (c *Chunk) AppendCell(cell Coord, vals []CellValue) {
	if len(vals) != len(c.AttrCols) {
		panic(fmt.Sprintf("array: AppendCell with %d values, schema %s has %d attrs", len(vals), c.Schema.Name, len(c.AttrCols)))
	}
	c.appendCoords(cell)
	for a, col := range c.AttrCols {
		switch col := col.(type) {
		case *IntColumn:
			col.Append(vals[a].Int)
		case *FloatColumn:
			col.Append(vals[a].Float)
		case *StrColumn:
			col.Append(vals[a].Str)
		}
	}
}

func (c *Chunk) appendCoords(cell Coord) {
	if len(cell) != len(c.DimCols) {
		panic(fmt.Sprintf("array: cell %v has %d dims, chunk has %d", cell, len(cell), len(c.DimCols)))
	}
	if c.Schema.PackedChunkOf(cell) != c.Key().Coord() {
		panic(fmt.Sprintf("array: cell %v belongs to chunk %v, not %v", cell, c.Schema.ChunkOf(cell), c.Coords))
	}
	for d := range c.DimCols {
		c.DimCols[d] = append(c.DimCols[d], cell[d])
	}
}

// Filter returns the row indexes of cells for which keep returns true.
func (c *Chunk) Filter(keep func(cell Coord) bool) []int {
	var rows []int
	cell := make(Coord, 0, len(c.DimCols))
	for i := 0; i < c.Len(); i++ {
		cell = c.CellInto(i, cell)
		if keep(cell) {
			rows = append(rows, i)
		}
	}
	return rows
}

// Validate checks internal consistency: equal column lengths and every cell
// inside this chunk's extent. It is used by tests and by the storage layer
// after deserialisation.
func (c *Chunk) Validate() error {
	n := c.Len()
	for d := range c.DimCols {
		if len(c.DimCols[d]) != n {
			return fmt.Errorf("array: chunk %s dim %d has %d values, want %d", c.Ref(), d, len(c.DimCols[d]), n)
		}
	}
	for a, col := range c.AttrCols {
		if col.Len() != n {
			return fmt.Errorf("array: chunk %s attr %d has %d values, want %d", c.Ref(), a, col.Len(), n)
		}
	}
	want := c.Key().Coord()
	cell := make(Coord, 0, len(c.DimCols))
	for i := 0; i < n; i++ {
		cell = c.CellInto(i, cell)
		if !c.Schema.ValidCell(cell) {
			return fmt.Errorf("array: chunk %s cell %v outside schema range", c.Ref(), cell)
		}
		if c.Schema.PackedChunkOf(cell) != want {
			return fmt.Errorf("array: chunk %s holds cell %v that belongs to %v", c.Ref(), cell, c.Schema.ChunkOf(cell))
		}
	}
	return nil
}

// ChunkInfo is the placement-relevant metadata of a chunk: identity,
// grid position and physical size. Partitioners see ChunkInfo, never
// payloads.
type ChunkInfo struct {
	Ref  ChunkRef
	Size int64
}

// SortChunkInfos orders infos by array name then chunk coordinate, the
// canonical deterministic order used everywhere placement decisions iterate
// over chunk sets.
func SortChunkInfos(infos []ChunkInfo) {
	sort.Slice(infos, func(i, j int) bool {
		a, b := infos[i].Ref, infos[j].Ref
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		return a.Coords.Less(b.Coords)
	})
}
