package array

import (
	"fmt"
	"strings"
)

// DataType enumerates the scalar attribute types supported by the array
// model. They mirror the SciDB types used by the paper's two workloads.
type DataType int

// Supported attribute types.
const (
	Int32 DataType = iota
	Int64
	Float32
	Float64
	Bool
	Char
	String
)

// Size returns the on-disk footprint in bytes of one value of the type.
// String is variable width; Size returns the per-value overhead and the
// column adds the byte length of each value on top.
func (t DataType) Size() int64 {
	switch t {
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	case Bool, Char:
		return 1
	case String:
		return 2 // length prefix; payload accounted per value
	default:
		return 8
	}
}

func (t DataType) String() string {
	switch t {
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float32:
		return "float"
	case Float64:
		return "double"
	case Bool:
		return "bool"
	case Char:
		return "char"
	case String:
		return "string"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// ParseDataType converts a SciDB-style type name to a DataType.
func ParseDataType(s string) (DataType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int32", "int":
		return Int32, nil
	case "int64", "long":
		return Int64, nil
	case "float", "float32":
		return Float32, nil
	case "double", "float64":
		return Float64, nil
	case "bool":
		return Bool, nil
	case "char":
		return Char, nil
	case "string":
		return String, nil
	default:
		return 0, fmt.Errorf("array: unknown data type %q", s)
	}
}

// Attribute is a named, typed cell payload, as in a relational column
// declaration. Attributes are vertically partitioned on disk: each physical
// chunk segment stores exactly one attribute.
type Attribute struct {
	Name string
	Type DataType
}

// Unbounded marks a dimension with no declared upper bound, such as a time
// series that grows monotonically ("time=0:*").
const Unbounded int64 = 1<<62 - 1

// Dimension is a named, contiguous integer range of array space together
// with the chunk interval (stride) that slices it into chunks.
type Dimension struct {
	Name string
	// Start and End delimit the declared range, inclusive. End may be
	// Unbounded for monotonically growing dimensions.
	Start, End int64
	// ChunkInterval is the length of a chunk along this dimension in
	// logical cells. It must be positive.
	ChunkInterval int64
}

// Bounded reports whether the dimension has a declared upper bound.
func (d Dimension) Bounded() bool { return d.End != Unbounded }

// Extent returns the number of logical cells spanned by a bounded
// dimension. It panics on unbounded dimensions.
func (d Dimension) Extent() int64 {
	if !d.Bounded() {
		panic("array: Extent of unbounded dimension " + d.Name)
	}
	return d.End - d.Start + 1
}

// NumChunks returns how many chunks a bounded dimension is divided into.
// It panics on unbounded dimensions.
func (d Dimension) NumChunks() int64 {
	e := d.Extent()
	return (e + d.ChunkInterval - 1) / d.ChunkInterval
}

// ChunkIndex maps a cell coordinate along this dimension to its chunk index
// (0-based position in the chunk grid).
func (d Dimension) ChunkIndex(v int64) int64 {
	return (v - d.Start) / d.ChunkInterval
}

// ChunkOrigin returns the smallest cell coordinate of chunk index ci along
// this dimension.
func (d Dimension) ChunkOrigin(ci int64) int64 {
	return d.Start + ci*d.ChunkInterval
}

// Contains reports whether cell coordinate v lies inside the declared range.
func (d Dimension) Contains(v int64) bool {
	if v < d.Start {
		return false
	}
	return !d.Bounded() || v <= d.End
}

// Schema is the logical declaration of an array: a name, a list of typed
// attributes and a list of chunked dimensions. A Schema is immutable after
// construction; all methods are safe for concurrent use.
type Schema struct {
	Name  string
	Attrs []Attribute
	Dims  []Dimension

	// id is the interned array identity, set by NewSchema so hot-path key
	// packing never consults the intern table.
	id ArrayID
}

// ID returns the interned array identity. Schemas built by NewSchema carry
// it precomputed; for hand-assembled values it falls back to the intern
// table without caching (so the method stays safe for concurrent use).
func (s *Schema) ID() ArrayID {
	if s.id != 0 {
		return s.id
	}
	return InternArrayName(s.Name)
}

// NewSchema validates and returns a schema. It rejects empty names,
// duplicate attribute or dimension names, non-positive chunk intervals, and
// inverted ranges.
func NewSchema(name string, attrs []Attribute, dims []Dimension) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("array: schema name must not be empty")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("array: schema %s needs at least one attribute", name)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("array: schema %s needs at least one dimension", name)
	}
	if len(dims) > MaxKeyDims {
		// Packed chunk keys (see doc.go) carry at most MaxKeyDims
		// coordinates; rejecting wider schemas here keeps every
		// schema-derived coordinate packable.
		return nil, fmt.Errorf("array: schema %s has %d dimensions, max %d", name, len(dims), MaxKeyDims)
	}
	seen := make(map[string]bool, len(attrs)+len(dims))
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("array: schema %s has an unnamed attribute", name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("array: schema %s repeats name %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	for _, d := range dims {
		if d.Name == "" {
			return nil, fmt.Errorf("array: schema %s has an unnamed dimension", name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("array: schema %s repeats name %q", name, d.Name)
		}
		seen[d.Name] = true
		if d.ChunkInterval <= 0 {
			return nil, fmt.Errorf("array: schema %s dimension %s has non-positive chunk interval %d", name, d.Name, d.ChunkInterval)
		}
		if d.Bounded() && d.End < d.Start {
			return nil, fmt.Errorf("array: schema %s dimension %s has inverted range [%d,%d]", name, d.Name, d.Start, d.End)
		}
	}
	s := &Schema{
		Name:  name,
		Attrs: append([]Attribute(nil), attrs...),
		Dims:  append([]Dimension(nil), dims...),
		id:    InternArrayName(name),
	}
	return s, nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// String renders the schema in SciDB declaration syntax, e.g.
// "A<i:int32,j:float>[x=1:4,2, y=1:4,2]".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('<')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Type)
	}
	b.WriteString(">[")
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		if d.Bounded() {
			fmt.Fprintf(&b, "%s=%d:%d,%d", d.Name, d.Start, d.End, d.ChunkInterval)
		} else {
			fmt.Fprintf(&b, "%s=%d:*,%d", d.Name, d.Start, d.ChunkInterval)
		}
	}
	b.WriteByte(']')
	return b.String()
}
