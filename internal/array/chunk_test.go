package array

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// mustSchema is NewSchema for fixed test literals.
func mustSchema(name string, attrs []Attribute, dims []Dimension) *Schema {
	s, err := NewSchema(name, attrs, dims)
	if err != nil {
		panic(err)
	}
	return s
}

func testSchema() *Schema {
	return mustSchema("A",
		[]Attribute{{Name: "i", Type: Int32}, {Name: "j", Type: Float64}, {Name: "s", Type: String}},
		[]Dimension{
			{Name: "x", Start: 0, End: 9, ChunkInterval: 5},
			{Name: "y", Start: 0, End: 9, ChunkInterval: 5},
		})
}

func fillChunk(t *testing.T, s *Schema, cc ChunkCoord, n int) *Chunk {
	t.Helper()
	c := NewChunk(s, cc)
	origin := s.ChunkOrigin(cc)
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < n; k++ {
		cell := Coord{origin[0] + int64(k)%5, origin[1] + int64(k/5)%5}
		c.AppendCell(cell, []CellValue{
			{Int: int64(rng.Intn(100))},
			{Float: rng.Float64()},
			{Str: "v"},
		})
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("fillChunk: %v", err)
	}
	return c
}

func TestChunkAppendAndSize(t *testing.T) {
	s := testSchema()
	c := fillChunk(t, s, ChunkCoord{0, 0}, 10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	// 2 dims × 10 × 8 + int32 10×4 + float64 10×8 + string 10×(2+1)
	want := int64(2*10*8 + 10*4 + 10*8 + 10*3)
	if got := c.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	// Projecting only attr 0: dims + int32 column.
	if got := c.ProjectedSizeBytes([]int{0}); got != 2*10*8+10*4 {
		t.Errorf("ProjectedSizeBytes = %d", got)
	}
}

func TestChunkAppendWrongChunkPanics(t *testing.T) {
	s := testSchema()
	c := NewChunk(s, ChunkCoord{0, 0})
	defer func() {
		if recover() == nil {
			t.Error("appending a cell from another chunk should panic")
		}
	}()
	c.AppendCell(Coord{7, 7}, []CellValue{{}, {}, {}})
}

func TestChunkFilter(t *testing.T) {
	s := testSchema()
	c := fillChunk(t, s, ChunkCoord{1, 1}, 20)
	rows := c.Filter(func(cell Coord) bool { return cell[0] >= 7 })
	if len(rows) == 0 || len(rows) == c.Len() {
		t.Fatalf("Filter kept %d of %d rows, want a proper subset", len(rows), c.Len())
	}
	kept := 0
	for i := 0; i < c.Len(); i++ {
		if c.DimCols[0][i] >= 7 {
			if rows[kept] != i {
				t.Fatalf("row %d has x >= 7 but Filter returned %v", i, rows)
			}
			kept++
		}
	}
	if kept != len(rows) {
		t.Errorf("Filter returned %d rows, %d match", len(rows), kept)
	}
}

func TestChunkValidateCatchesCorruption(t *testing.T) {
	s := testSchema()
	c := fillChunk(t, s, ChunkCoord{0, 0}, 5)
	c.DimCols[0] = c.DimCols[0][:4]
	if err := c.Validate(); err == nil {
		t.Error("truncated dim column should fail validation")
	}
	c = fillChunk(t, s, ChunkCoord{0, 0}, 5)
	c.DimCols[0][0] = 7 // belongs to chunk 1/0
	if err := c.Validate(); err == nil {
		t.Error("foreign cell should fail validation")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	c := fillChunk(t, s, ChunkCoord{1, 0}, 17)
	data, err := EncodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() || !slices.Equal(back.Coords, c.Coords) {
		t.Fatalf("round trip mismatch: %v/%d vs %v/%d", back.Coords, back.Len(), c.Coords, c.Len())
	}
	if !reflect.DeepEqual(back.DimCols, c.DimCols) || !reflect.DeepEqual(back.AttrCols, c.AttrCols) {
		t.Fatal("round trip changed cell coordinates or values")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	s := testSchema()
	if _, err := DecodeChunk(s, []byte{1, 2, 3}); err == nil {
		t.Error("garbage should not decode")
	}
	c := fillChunk(t, s, ChunkCoord{0, 0}, 3)
	data, _ := EncodeChunk(c)
	if _, err := DecodeChunk(s, data[:len(data)-2]); err == nil {
		t.Error("truncated payload should not decode")
	}
	if _, err := DecodeChunk(s, append(data, 0)); err == nil {
		t.Error("trailing bytes should not decode")
	}
	other := mustSchema("B", []Attribute{{Name: "v", Type: Float64}},
		[]Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 5}})
	if _, err := DecodeChunk(other, data); err == nil {
		t.Error("decoding under mismatched schema should fail")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	s := mustSchema("P",
		[]Attribute{{Name: "a", Type: Int64}, {Name: "b", Type: Float32}},
		[]Dimension{{Name: "x", Start: 0, End: 99, ChunkInterval: 10}})
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 50)
		rng := rand.New(rand.NewSource(seed))
		c := NewChunk(s, ChunkCoord{3})
		for i := 0; i < n; i++ {
			c.AppendCell(Coord{30 + rng.Int63n(10)}, []CellValue{
				{Int: rng.Int63()},
				{Float: float64(rng.Float32())},
			})
		}
		data, err := EncodeChunk(c)
		if err != nil {
			return false
		}
		back, err := DecodeChunk(s, data)
		if err != nil || back.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(back.CellInto(i, nil), c.CellInto(i, nil)) {
				return false
			}
			if back.AttrCols[0].Float64(i) != c.AttrCols[0].Float64(i) {
				return false
			}
			if back.AttrCols[1].Float64(i) != c.AttrCols[1].Float64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSortChunkInfos(t *testing.T) {
	infos := []ChunkInfo{
		{Ref: ChunkRef{Array: "B", Coords: ChunkCoord{0}}},
		{Ref: ChunkRef{Array: "A", Coords: ChunkCoord{1}}},
		{Ref: ChunkRef{Array: "A", Coords: ChunkCoord{0}}},
	}
	SortChunkInfos(infos)
	want := []string{"A:0", "A:1", "B:0"}
	for i, info := range infos {
		if info.Ref.Key() != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, info.Ref.Key(), want[i])
		}
	}
}

func TestColumnAccessors(t *testing.T) {
	fc := &FloatColumn{T: Float64}
	fc.Append(1.5)
	fc.Append(2.5)
	if fc.Float64(1) != 2.5 || fc.Len() != 2 {
		t.Error("FloatColumn accessors misbehave")
	}

	sc := &StrColumn{}
	sc.Append("hello")
	if sc.SizeBytes() != 2+5 {
		t.Errorf("StrColumn SizeBytes = %d", sc.SizeBytes())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Float64 on string column should panic")
			}
		}()
		sc.Float64(0)
	}()
}

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema("A<i:int32, j:float>[x=1:4,2, y=1:4,2]")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "A" || len(s.Attrs) != 2 || len(s.Dims) != 2 {
		t.Fatalf("parsed %v", s)
	}
	if s.Attrs[1].Type != Float32 || s.Dims[1].ChunkInterval != 2 {
		t.Errorf("parsed schema fields wrong: %v", s)
	}
}

func TestParseSchemaPaperForms(t *testing.T) {
	// The MODIS band declaration from Section 3.1 (comma range form).
	decl := "Band<si_value:int, radiance:double, reflectance:double," +
		"uncertainty_idx:int, uncertainty_pct:float," +
		"platform_id:int, resolution_id:int>[time=0,*,1440," +
		"longitude=-180,180,12, latitude=-90,90,12]"
	s, err := ParseSchema(decl)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Attrs) != 7 || len(s.Dims) != 3 {
		t.Fatalf("parsed %d attrs, %d dims", len(s.Attrs), len(s.Dims))
	}
	if s.Dims[0].Bounded() {
		t.Error("time should be unbounded")
	}
	if s.Dims[1].Start != -180 || s.Dims[1].End != 180 || s.Dims[1].ChunkInterval != 12 {
		t.Errorf("longitude parsed as %+v", s.Dims[1])
	}
	back := s.String()
	s2, err := ParseSchema(back)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", back, err)
	}
	if s2.String() != back {
		t.Error("String/Parse not a fixed point")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := []string{
		"",
		"A[x=0:9,2]",
		"A<v:double>",
		"A<v>[x=0:9,2]",
		"A<v:double>[x]",
		"A<v:double>[x=0:9]",
		"A<v:nope>[x=0:9,2]",
		"A<v:double>[x=a:9,2]",
		"A<v:double>[x=0:b,2]",
		"A<v:double>[x=0:9,c]",
		"A<v:double>[x=0,1]",
	}
	for _, decl := range bad {
		if _, err := ParseSchema(decl); err == nil {
			t.Errorf("ParseSchema(%q) should fail", decl)
		}
	}
}
