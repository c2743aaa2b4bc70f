package array

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func grid2x2() *Schema {
	return mustSchema("A",
		[]Attribute{{Name: "v", Type: Float64}},
		[]Dimension{
			{Name: "x", Start: 1, End: 4, ChunkInterval: 2},
			{Name: "y", Start: 1, End: 4, ChunkInterval: 2},
		})
}

func TestChunkOf(t *testing.T) {
	s := grid2x2()
	cases := []struct {
		cell Coord
		want string
	}{
		{Coord{1, 1}, "0/0"},
		{Coord{2, 2}, "0/0"},
		{Coord{3, 1}, "1/0"},
		{Coord{4, 4}, "1/1"},
		{Coord{1, 3}, "0/1"},
	}
	for _, c := range cases {
		if got := s.ChunkOf(c.cell).Key(); got != c.want {
			t.Errorf("ChunkOf(%v) = %s, want %s", c.cell, got, c.want)
		}
	}
}

func TestChunkOriginInverse(t *testing.T) {
	s := grid2x2()
	for _, key := range []string{"0/0", "0/1", "1/0", "1/1"} {
		cc, err := parseChunkCoord(key)
		if err != nil {
			t.Fatal(err)
		}
		origin := s.ChunkOrigin(cc)
		if got := s.ChunkOf(origin); got.Key() != key {
			t.Errorf("ChunkOf(ChunkOrigin(%s)) = %s", key, got.Key())
		}
	}
}

func TestChunkCoordKeyRoundTrip(t *testing.T) {
	f := func(a, b, c int16) bool {
		cc := ChunkCoord{int64(a), int64(b), int64(c)}
		back, err := parseChunkCoord(cc.Key())
		return err == nil && slices.Equal(back, cc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkRefKeyRoundTrip(t *testing.T) {
	r := ChunkRef{Array: "Band1", Coords: ChunkCoord{3, -2, 7}}
	back, err := ParseChunkRef(r.Key())
	if err != nil {
		t.Fatal(err)
	}
	if back.Array != r.Array || !slices.Equal(back.Coords, r.Coords) {
		t.Errorf("round trip %v -> %v", r, back)
	}
	if _, err := ParseChunkRef("noseparator"); err == nil {
		t.Error("missing ':' should fail")
	}
	if _, err := parseChunkCoord("1/x/3"); err == nil {
		t.Error("non-numeric coordinate should fail")
	}
	if _, err := parseChunkCoord(""); err == nil {
		t.Error("empty key should fail")
	}
}

func TestChunkCoordLessIsTotalOrder(t *testing.T) {
	cs := []ChunkCoord{{1, 2}, {0, 5}, {1, 1}, {2, 0}, {0, 0}}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Less(cs[j]) })
	want := []string{"0/0", "0/5", "1/1", "1/2", "2/0"}
	for i, cc := range cs {
		if cc.Key() != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, cc.Key(), want[i])
		}
	}
	if cs[0].Less(cs[0]) {
		t.Error("Less must be irreflexive")
	}
}

func TestValidChunkAndCell(t *testing.T) {
	s := grid2x2()
	if !s.ValidChunk(ChunkCoord{1, 1}) {
		t.Error("1/1 should be valid")
	}
	if s.ValidChunk(ChunkCoord{2, 0}) {
		t.Error("2/0 out of grid")
	}
	if s.ValidChunk(ChunkCoord{-1, 0}) {
		t.Error("negative chunk index invalid")
	}
	if s.ValidChunk(ChunkCoord{0}) {
		t.Error("wrong dimensionality invalid")
	}
	if !s.ValidCell(Coord{4, 4}) {
		t.Error("(4,4) should be valid")
	}
	if s.ValidCell(Coord{5, 1}) {
		t.Error("(5,1) out of range")
	}
}

func TestCoordHelpers(t *testing.T) {
	c := Coord{1, 2, 3}
	if c.String() != "(1,2,3)" {
		t.Errorf("String = %q", c.String())
	}
}
