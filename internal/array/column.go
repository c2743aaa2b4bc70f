package array

import "fmt"

// Column is one vertical segment of a chunk: all the values of a single
// attribute for the chunk's non-empty cells, in cell order. Columns are the
// unit the paper's vertical partitioning (Section 2) accounts separately on
// disk.
type Column interface {
	// Type returns the scalar type stored in the column.
	Type() DataType
	// Len returns the number of values (== number of occupied cells).
	Len() int
	// SizeBytes returns the on-disk footprint of the segment.
	SizeBytes() int64
	// Float64 returns value i widened to float64. It panics for
	// non-numeric columns.
	Float64(i int) float64
}

// IntColumn stores integer-family attributes (int32, int64, bool, char)
// widened to int64, remembering the declared type for size accounting.
type IntColumn struct {
	T    DataType
	Vals []int64
}

// Type implements Column.
func (c *IntColumn) Type() DataType { return c.T }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.Vals) }

// SizeBytes implements Column.
func (c *IntColumn) SizeBytes() int64 { return int64(len(c.Vals)) * c.T.Size() }

// Float64 implements Column.
func (c *IntColumn) Float64(i int) float64 { return float64(c.Vals[i]) }

// Append adds a value to the column.
func (c *IntColumn) Append(v int64) { c.Vals = append(c.Vals, v) }

// FloatColumn stores float-family attributes (float32, float64) widened to
// float64, remembering the declared type for size accounting.
type FloatColumn struct {
	T    DataType
	Vals []float64
}

// Type implements Column.
func (c *FloatColumn) Type() DataType { return c.T }

// Len implements Column.
func (c *FloatColumn) Len() int { return len(c.Vals) }

// SizeBytes implements Column.
func (c *FloatColumn) SizeBytes() int64 { return int64(len(c.Vals)) * c.T.Size() }

// Float64 implements Column.
func (c *FloatColumn) Float64(i int) float64 { return c.Vals[i] }

// Append adds a value to the column.
func (c *FloatColumn) Append(v float64) { c.Vals = append(c.Vals, v) }

// StrColumn stores string attributes.
type StrColumn struct {
	Vals []string
}

// Type implements Column.
func (c *StrColumn) Type() DataType { return String }

// Len implements Column.
func (c *StrColumn) Len() int { return len(c.Vals) }

// SizeBytes implements Column.
func (c *StrColumn) SizeBytes() int64 {
	n := int64(len(c.Vals)) * String.Size()
	for _, v := range c.Vals {
		n += int64(len(v))
	}
	return n
}

// Float64 implements Column; string columns are not numeric.
func (c *StrColumn) Float64(i int) float64 {
	panic("array: Float64 on string column")
}

// Append adds a value to the column.
func (c *StrColumn) Append(v string) { c.Vals = append(c.Vals, v) }

// NewColumnCap returns an empty column of the concrete type for t,
// preallocated for n values, so bulk appends (the generators) grow
// the backing array once instead of doubling repeatedly.
func NewColumnCap(t DataType, n int) Column {
	switch t {
	case Int32, Int64, Bool, Char:
		return &IntColumn{T: t, Vals: make([]int64, 0, n)}
	case Float32, Float64:
		return &FloatColumn{T: t, Vals: make([]float64, 0, n)}
	case String:
		return &StrColumn{Vals: make([]string, 0, n)}
	default:
		panic(fmt.Sprintf("array: NewColumnCap of unknown type %v", t))
	}
}
