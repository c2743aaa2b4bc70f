package array

import (
	"math/rand"
	"slices"
	"testing"
)

func TestInternArrayName(t *testing.T) {
	a := InternArrayName("KeyTestA")
	b := InternArrayName("KeyTestB")
	if a == 0 || b == 0 {
		t.Fatal("interned IDs must be non-zero")
	}
	if a == b {
		t.Fatal("distinct names must intern to distinct IDs")
	}
	if got := InternArrayName("KeyTestA"); got != a {
		t.Errorf("re-interning returned %d, want %d", got, a)
	}
	if got := a.Name(); got != "KeyTestA" {
		t.Errorf("Name() = %q, want KeyTestA", got)
	}
	if got := ArrayID(0).Name(); got != "" {
		t.Errorf("zero ID resolves to %q, want empty", got)
	}
}

// TestChunkKeyRoundTrip drives random references — negative coordinates
// included — through every identity conversion and requires the cycle
// ref → Packed → Ref → Key → ParseChunkRef → Packed to be lossless.
func TestChunkKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Names stay free of ':' and '/', which the wire format reserves (a
	// pre-existing ParseChunkRef limit independent of key packing).
	names := []string{"Band1", "Band2", "Broadcast", "key-rt.odd_name"}
	for i := 0; i < 2000; i++ {
		ndims := 1 + rng.Intn(MaxKeyDims)
		cc := make(ChunkCoord, ndims)
		for d := range cc {
			cc[d] = rng.Int63n(2000) - 1000 // negatives included
		}
		ref := ChunkRef{Array: names[rng.Intn(len(names))], Coords: cc}
		key := ref.Packed()
		back := key.Ref()
		if back.Array != ref.Array || !slices.Equal(back.Coords, ref.Coords) {
			t.Fatalf("Packed/Ref round trip: %v -> %v", ref, back)
		}
		if key.ArrayName() != ref.Array {
			t.Fatalf("ArrayName = %q, want %q", key.ArrayName(), ref.Array)
		}
		if key.Coord().NumDims() != ndims {
			t.Fatalf("NumDims = %d, want %d", key.Coord().NumDims(), ndims)
		}
		for d := range cc {
			if key.Coord().At(d) != cc[d] {
				t.Fatalf("At(%d) = %d, want %d", d, key.Coord().At(d), cc[d])
			}
		}
		// The wire string is unchanged by the packed representation,
		// and parsing it recovers the same packed key.
		parsed, err := ParseChunkRef(back.Key())
		if err != nil {
			t.Fatalf("ParseChunkRef(%q): %v", back.Key(), err)
		}
		if parsed.Packed() != key {
			t.Fatalf("wire round trip: %v -> %v", key, parsed.Packed())
		}
		// Packing is injective on this sample: equal keys imply equal refs.
		if key != ref.Packed() {
			t.Fatalf("packing is not deterministic for %v", ref)
		}
	}
}

func TestCoordKeyPrefixDistinct(t *testing.T) {
	// A 2-dim coordinate (1,0) must not collide with 1-dim (1): the
	// dimension count is part of the key.
	a := ChunkCoord{1, 0}.Packed()
	b := ChunkCoord{1}.Packed()
	if a == b {
		t.Fatal("keys of different dimensionality must differ")
	}
	if !b.Less(a) || a.Less(b) {
		t.Fatal("shorter coordinate must order before its zero-extended prefix")
	}
}

func TestPackCoordsRejectsWideCoordinates(t *testing.T) {
	wide := make(ChunkCoord, MaxKeyDims+1)
	if _, err := PackCoords(wide); err == nil {
		t.Fatal("PackCoords must reject >MaxKeyDims coordinates")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Packed() must panic on >MaxKeyDims coordinates")
		}
	}()
	_ = wide.Packed()
}

func TestNewSchemaRejectsWideSchemas(t *testing.T) {
	dims := make([]Dimension, MaxKeyDims+1)
	for i := range dims {
		dims[i] = Dimension{Name: string(rune('a' + i)), Start: 0, End: 9, ChunkInterval: 2}
	}
	if _, err := NewSchema("wide", []Attribute{{Name: "v", Type: Float64}}, dims); err == nil {
		t.Fatal("NewSchema must reject schemas wider than MaxKeyDims")
	}
	if _, err := NewSchema("ok4", []Attribute{{Name: "v", Type: Float64}}, dims[:MaxKeyDims]); err != nil {
		t.Fatalf("NewSchema must accept MaxKeyDims dims: %v", err)
	}
}

func TestCoordKeyLessMatchesChunkCoordLess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(MaxKeyDims)
		a := make(ChunkCoord, n)
		b := make(ChunkCoord, n)
		for d := 0; d < n; d++ {
			a[d] = rng.Int63n(20) - 10
			b[d] = rng.Int63n(20) - 10
		}
		if a.Packed().Less(b.Packed()) != a.Less(b) {
			t.Fatalf("Less mismatch for %v vs %v", a, b)
		}
	}
}

// TestChunkKeyOf: a cell's chunk key built the allocation-free way, from
// the schema's interned ID and PackedChunkOf, equals the canonical key
// packed from its ChunkRef.
func TestChunkKeyOf(t *testing.T) {
	s := mustSchema("KeyOfA",
		[]Attribute{{Name: "v", Type: Float64}},
		[]Dimension{
			{Name: "x", Start: -8, End: 7, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	cell := Coord{-5, 9}
	want := ChunkRef{Array: "KeyOfA", Coords: s.ChunkOf(cell)}.Packed()
	if got := MakeChunkKey(s.ID(), s.PackedChunkOf(cell)); got != want {
		t.Errorf("chunk key of %v = %v, want %v", cell, got, want)
	}
	if got := s.PackedChunkOf(cell); got != s.ChunkOf(cell).Packed() {
		t.Errorf("PackedChunkOf(%v) = %v, want %v", cell, got, s.ChunkOf(cell))
	}
}

func TestCellInto(t *testing.T) {
	c := benchChunkForTest(t)
	var buf Coord
	for i := 0; i < c.Len(); i++ {
		buf = c.CellInto(i, buf)
		if want := (Coord{c.DimCols[0][i], c.DimCols[1][i]}); !slices.Equal(buf, want) {
			t.Fatalf("CellInto(%d) = %v, want %v", i, buf, want)
		}
	}
}

func benchChunkForTest(t *testing.T) *Chunk {
	t.Helper()
	s := mustSchema("CellIntoA",
		[]Attribute{{Name: "v", Type: Float64}},
		[]Dimension{
			{Name: "x", Start: 0, End: 15, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	c := NewChunkCap(s, ChunkCoord{1, 2}, 16)
	for i := int64(0); i < 16; i++ {
		c.AppendCell(Coord{4 + i%4, 8 + i/4}, []CellValue{{Float: float64(i)}})
	}
	return c
}
