package partition

import (
	"slices"
	"testing"

	"repro/internal/array"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox([]int64{0, 0}, []int64{4, 6})
	if b.Volume() != 24 {
		t.Errorf("Volume = %d, want 24", b.Volume())
	}
	if b.Span(1) != 6 {
		t.Errorf("Span(1) = %d, want 6", b.Span(1))
	}
	if !b.Contains(array.ChunkCoord{3, 5}) {
		t.Error("(3,5) should be inside")
	}
	if b.Contains(array.ChunkCoord{4, 0}) || b.Contains(array.ChunkCoord{0, -1}) || b.Contains(array.ChunkCoord{1}) {
		t.Error("outside coordinates must be rejected")
	}
	if b.Volume() == 0 {
		t.Error("box is not empty")
	}
	if NewBox([]int64{1, 1}, []int64{1, 5}).Volume() != 0 {
		t.Error("zero-span box is empty")
	}
}

func TestBoxSplitAt(t *testing.T) {
	b := NewBox([]int64{0, 0}, []int64{8, 8})
	lo, hi := b.SplitAt(0, 3)
	if lo.Hi[0] != 3 || hi.Lo[0] != 3 {
		t.Errorf("split halves wrong: %v / %v", lo, hi)
	}
	if lo.Volume()+hi.Volume() != b.Volume() {
		t.Error("split must conserve volume")
	}
	for _, cc := range []array.ChunkCoord{{2, 7}, {3, 0}, {7, 7}} {
		inLo, inHi := lo.Contains(cc), hi.Contains(cc)
		if inLo == inHi {
			t.Errorf("%v must be in exactly one half", cc)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("degenerate split should panic")
		}
	}()
	b.SplitAt(0, 0)
}

func TestBoxAdjacent(t *testing.T) {
	a := NewBox([]int64{0, 0}, []int64{4, 4})
	b := NewBox([]int64{4, 0}, []int64{8, 4})   // shares the x=4 face
	c := NewBox([]int64{4, 4}, []int64{8, 8})   // corner touch only
	d := NewBox([]int64{0, 0}, []int64{4, 4})   // identical (overlap, no face)
	e := NewBox([]int64{10, 0}, []int64{12, 4}) // disjoint
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("a and b share a face")
	}
	if a.Adjacent(c) {
		t.Error("corner touch is not adjacency")
	}
	if a.Adjacent(d) {
		t.Error("identical boxes are not adjacent")
	}
	if a.Adjacent(e) {
		t.Error("disjoint boxes are not adjacent")
	}
}

func TestBoxLongestDims(t *testing.T) {
	b := NewBox([]int64{0, 0, 0}, []int64{2, 10, 5})
	dims := b.LongestDims(2)
	if dims[0] != 1 || dims[1] != 2 {
		t.Errorf("LongestDims = %v, want [1 2]", dims)
	}
	// Ties break toward the lower index.
	b2 := NewBox([]int64{0, 0}, []int64{4, 4})
	if d := b2.LongestDims(1); d[0] != 0 {
		t.Errorf("tie should pick dim 0, got %v", d)
	}
	if got := b2.LongestDims(5); len(got) != 2 {
		t.Errorf("k beyond dims should clamp, got %v", got)
	}
}

func TestRootBox(t *testing.T) {
	g := Geometry{Extents: []int64{3, 5}}
	r := RootBox(g)
	if r.Volume() != 15 {
		t.Errorf("RootBox volume = %d, want 15", r.Volume())
	}
	if r.Lo[0] != 0 || r.Lo[1] != 0 {
		t.Error("RootBox must start at origin")
	}
}

func TestGeometryValidateAndClamp(t *testing.T) {
	if err := (Geometry{}).Validate(); err == nil {
		t.Error("empty geometry should fail")
	}
	if err := (Geometry{Extents: []int64{4, 0}}).Validate(); err == nil {
		t.Error("zero extent should fail")
	}
	g := Geometry{Extents: []int64{4, 6}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got := g.Clamp(array.ChunkCoord{-1, 9})
	if got[0] != 0 || got[1] != 5 {
		t.Errorf("Clamp = %v, want [0 5]", got)
	}
	in := array.ChunkCoord{2, 3}
	if out := g.Clamp(in); !slices.Equal(out, in) {
		t.Error("in-range coordinate must be unchanged")
	}
	if in[0] != 2 {
		t.Error("Clamp must not mutate its argument")
	}
}

func TestQuarter(t *testing.T) {
	q := quarter(NewBox([]int64{0, 0}, []int64{8, 8}), nil)
	if len(q) != 4 {
		t.Fatalf("quarter yields %d boxes, want 4", len(q))
	}
	var vol int64
	for _, b := range q {
		vol += b.Volume()
	}
	if vol != 64 {
		t.Errorf("quarters cover %d slots, want 64", vol)
	}
	// One splittable axis → halves only.
	q2 := quarter(NewBox([]int64{0, 0}, []int64{8, 1}), nil)
	if len(q2) != 2 {
		t.Errorf("thin box quarters into %d, want 2", len(q2))
	}
	// Nothing splittable → unchanged.
	q3 := quarter(NewBox([]int64{0, 0}, []int64{1, 1}), nil)
	if len(q3) != 1 {
		t.Errorf("unit box quarters into %d, want 1", len(q3))
	}
	// 3-D: quarter on the two longest axes only.
	q4 := quarter(NewBox([]int64{0, 0, 0}, []int64{2, 8, 8}), nil)
	if len(q4) != 4 {
		t.Fatalf("3-D quarter yields %d boxes, want 4", len(q4))
	}
	for _, b := range q4 {
		if b.Span(0) != 2 {
			t.Error("shortest axis must remain uncut")
		}
	}
}
