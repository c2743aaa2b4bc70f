package array

import (
	"strings"
	"testing"
)

func TestDataTypeSize(t *testing.T) {
	cases := []struct {
		t    DataType
		want int64
	}{
		{Int32, 4}, {Int64, 8}, {Float32, 4}, {Float64, 8}, {Bool, 1}, {Char, 1}, {String, 2},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestParseDataType(t *testing.T) {
	for _, s := range []string{"int32", "int64", "float", "double", "bool", "char", "string", "INT32", " int "} {
		if _, err := ParseDataType(s); err != nil {
			t.Errorf("ParseDataType(%q): %v", s, err)
		}
	}
	if _, err := ParseDataType("varchar"); err == nil {
		t.Error("ParseDataType(varchar) should fail")
	}
}

func TestDataTypeRoundTrip(t *testing.T) {
	for _, dt := range []DataType{Int32, Int64, Float32, Float64, Bool, Char, String} {
		got, err := ParseDataType(dt.String())
		if err != nil {
			t.Fatalf("ParseDataType(%v.String()): %v", dt, err)
		}
		if got != dt {
			t.Errorf("round trip %v -> %q -> %v", dt, dt.String(), got)
		}
	}
}

func TestDimensionChunkMath(t *testing.T) {
	d := Dimension{Name: "x", Start: 1, End: 4, ChunkInterval: 2}
	if !d.Bounded() {
		t.Fatal("d should be bounded")
	}
	if got := d.Extent(); got != 4 {
		t.Errorf("Extent = %d, want 4", got)
	}
	if got := d.NumChunks(); got != 2 {
		t.Errorf("NumChunks = %d, want 2", got)
	}
	for _, c := range []struct{ v, want int64 }{{1, 0}, {2, 0}, {3, 1}, {4, 1}} {
		if got := d.ChunkIndex(c.v); got != c.want {
			t.Errorf("ChunkIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := d.ChunkOrigin(1); got != 3 {
		t.Errorf("ChunkOrigin(1) = %d, want 3", got)
	}
}

func TestDimensionUnevenChunks(t *testing.T) {
	// Extent 181 (longitude -90..90) with stride 12 → 16 chunks, last partial.
	d := Dimension{Name: "lat", Start: -90, End: 90, ChunkInterval: 12}
	if got := d.NumChunks(); got != 16 {
		t.Errorf("NumChunks = %d, want 16", got)
	}
	if got := d.ChunkIndex(90); got != 15 {
		t.Errorf("ChunkIndex(90) = %d, want 15", got)
	}
	if got := d.ChunkIndex(-90); got != 0 {
		t.Errorf("ChunkIndex(-90) = %d, want 0", got)
	}
}

func TestDimensionUnbounded(t *testing.T) {
	d := Dimension{Name: "time", Start: 0, End: Unbounded, ChunkInterval: 1440}
	if d.Bounded() {
		t.Fatal("time should be unbounded")
	}
	if !d.Contains(1 << 40) {
		t.Error("unbounded dim should contain large values")
	}
	if d.Contains(-1) {
		t.Error("dim should not contain values below Start")
	}
	defer func() {
		if recover() == nil {
			t.Error("Extent of unbounded dim should panic")
		}
	}()
	_ = d.Extent()
}

func TestNewSchemaValidation(t *testing.T) {
	attrs := []Attribute{{Name: "v", Type: Float64}}
	dims := []Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 2}}
	if _, err := NewSchema("", attrs, dims); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema("A", nil, dims); err == nil {
		t.Error("no attrs should fail")
	}
	if _, err := NewSchema("A", attrs, nil); err == nil {
		t.Error("no dims should fail")
	}
	if _, err := NewSchema("A", attrs, []Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 0}}); err == nil {
		t.Error("zero chunk interval should fail")
	}
	if _, err := NewSchema("A", attrs, []Dimension{{Name: "x", Start: 9, End: 0, ChunkInterval: 2}}); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := NewSchema("A", []Attribute{{Name: "x", Type: Int32}}, dims); err == nil {
		t.Error("attr/dim name collision should fail")
	}
	if _, err := NewSchema("A", attrs, dims); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestSchemaLookups(t *testing.T) {
	s := mustSchema("A",
		[]Attribute{{Name: "i", Type: Int32}, {Name: "j", Type: Float32}},
		[]Dimension{{Name: "x", Start: 1, End: 4, ChunkInterval: 2}, {Name: "y", Start: 1, End: 4, ChunkInterval: 2}})
	if got := s.AttrIndex("j"); got != 1 {
		t.Errorf("AttrIndex(j) = %d, want 1", got)
	}
	if got := s.AttrIndex("zz"); got != -1 {
		t.Errorf("AttrIndex(zz) = %d, want -1", got)
	}
}

func TestSchemaString(t *testing.T) {
	s := mustSchema("A",
		[]Attribute{{Name: "i", Type: Int32}, {Name: "j", Type: Float32}},
		[]Dimension{{Name: "x", Start: 1, End: 4, ChunkInterval: 2}, {Name: "t", Start: 0, End: Unbounded, ChunkInterval: 10}})
	got := s.String()
	for _, want := range []string{"A<", "i:int32", "j:float", "x=1:4,2", "t=0:*,10"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}
