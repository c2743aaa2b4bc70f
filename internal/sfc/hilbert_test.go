package sfc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCurveValidation(t *testing.T) {
	if _, err := NewCurve(0, 4); err == nil {
		t.Error("dims=0 should fail")
	}
	if _, err := NewCurve(2, 0); err == nil {
		t.Error("bits=0 should fail")
	}
	if _, err := NewCurve(8, 8); err == nil {
		t.Error("64 total bits should fail")
	}
	if _, err := NewCurve(3, 21); err != nil {
		t.Errorf("63 total bits should be fine: %v", err)
	}
}

func TestCurve2DKnownOrder(t *testing.T) {
	// The canonical order-1 Hilbert curve visits (0,0),(0,1),(1,1),(1,0)
	// or its reflection; whichever orientation, consecutive indices must
	// be adjacent and all four cells visited exactly once.
	c := mustCurve(2, 1)
	seen := map[uint64][]uint64{}
	for h := uint64(0); h < 4; h++ {
		xy, err := c.coords(h)
		if err != nil {
			t.Fatal(err)
		}
		seen[h] = xy
	}
	if len(seen) != 4 {
		t.Fatalf("visited %d cells, want 4", len(seen))
	}
	for h := uint64(1); h < 4; h++ {
		d := manhattan(seen[h-1], seen[h])
		if d != 1 {
			t.Errorf("steps %d->%d jump distance %d, want 1", h-1, h, d)
		}
	}
}

func manhattan(a, b []uint64) int64 {
	var d int64
	for i := range a {
		x := int64(a[i]) - int64(b[i])
		if x < 0 {
			x = -x
		}
		d += x
	}
	return d
}

func TestCurveBijective2D(t *testing.T) {
	c := mustCurve(2, 4) // 16x16
	seen := make(map[uint64]bool, 256)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			h, err := c.Index([]uint64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if seen[h] {
				t.Fatalf("index %d hit twice", h)
			}
			seen[h] = true
			back, err := c.coords(h)
			if err != nil {
				t.Fatal(err)
			}
			if back[0] != x || back[1] != y {
				t.Fatalf("Coords(Index(%d,%d)) = %v", x, y, back)
			}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("saw %d distinct indices, want 256", len(seen))
	}
}

func TestCurveAdjacency2D(t *testing.T) {
	// Defining property of the Hilbert curve: consecutive indices are
	// unit steps in space.
	c := mustCurve(2, 5)
	prev, err := c.coords(0)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h < c.Size(); h++ {
		cur, err := c.coords(h)
		if err != nil {
			t.Fatal(err)
		}
		if manhattan(prev, cur) != 1 {
			t.Fatalf("indices %d,%d are %d apart in space", h-1, h, manhattan(prev, cur))
		}
		prev = cur
	}
}

func TestCurveAdjacency3D(t *testing.T) {
	c := mustCurve(3, 3)
	prev, _ := c.coords(0)
	for h := uint64(1); h < c.Size(); h++ {
		cur, err := c.coords(h)
		if err != nil {
			t.Fatal(err)
		}
		if manhattan(prev, cur) != 1 {
			t.Fatalf("3D indices %d,%d are %d apart", h-1, h, manhattan(prev, cur))
		}
		prev = cur
	}
}

func TestCurveRoundTripProperty(t *testing.T) {
	c := mustCurve(3, 6)
	f := func(a, b, d uint16) bool {
		coords := []uint64{uint64(a) % 64, uint64(b) % 64, uint64(d) % 64}
		h, err := c.Index(coords)
		if err != nil {
			return false
		}
		back, err := c.coords(h)
		if err != nil {
			return false
		}
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveIndexErrors(t *testing.T) {
	c := mustCurve(2, 3)
	if _, err := c.Index([]uint64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := c.Index([]uint64{8, 0}); err == nil {
		t.Error("out-of-cube coordinate should fail")
	}
	if _, err := c.coords(c.Size()); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestRectOrderValidation(t *testing.T) {
	if _, err := NewRectOrder(nil); err == nil {
		t.Error("no dims should fail")
	}
	if _, err := NewRectOrder([]int64{4, 0}); err == nil {
		t.Error("zero extent should fail")
	}
	if _, err := NewRectOrder([]int64{1 << 40, 1 << 40}); err == nil {
		t.Error("oversized rectangle should fail")
	}
}

func TestRectOrderDistinctRanks(t *testing.T) {
	r := mustRectOrder([]int64{29, 23}) // AIS-like lon × lat chunk grid
	seen := make(map[uint64][2]int64)
	for x := int64(0); x < 29; x++ {
		for y := int64(0); y < 23; y++ {
			rank, err := r.Rank([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[rank]; dup {
				t.Fatalf("rank %d for both %v and (%d,%d)", rank, prev, x, y)
			}
			seen[rank] = [2]int64{x, y}
			if rank > r.MaxRank() {
				t.Fatalf("rank %d exceeds MaxRank %d", rank, r.MaxRank())
			}
		}
	}
}

func TestRectOrderLocality(t *testing.T) {
	// Sort all cells of a 16x16 grid by rank; mean Euclidean distance of
	// rank-adjacent cells must be far below that of a row-major order's
	// wrap-around jumps — we check it stays under 1.7 (true Hilbert is
	// exactly 1; the rectangle embedding can skip over out-of-rectangle
	// cube cells).
	r := mustRectOrder([]int64{16, 16})
	var cells []rankedCell
	for x := int64(0); x < 16; x++ {
		for y := int64(0); y < 16; y++ {
			rank, err := r.Rank([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, rankedCell{rank, x, y})
		}
	}
	sortCells(cells)
	var total float64
	for i := 1; i < len(cells); i++ {
		dx := float64(cells[i].x - cells[i-1].x)
		dy := float64(cells[i].y - cells[i-1].y)
		total += math.Hypot(dx, dy)
	}
	mean := total / float64(len(cells)-1)
	if mean > 1.7 {
		t.Errorf("mean rank-adjacent distance %.2f, want <= 1.7", mean)
	}
}

type rankedCell struct {
	rank uint64
	x, y int64
}

func sortCells(cells []rankedCell) {
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0 && cells[j].rank < cells[j-1].rank; j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
}

func TestRectOrderContains(t *testing.T) {
	r := mustRectOrder([]int64{4, 8})
	if !r.Contains([]int64{3, 7}) {
		t.Error("(3,7) should be inside")
	}
	if r.Contains([]int64{4, 0}) || r.Contains([]int64{0, -1}) || r.Contains([]int64{1}) {
		t.Error("out-of-rectangle coordinates should be rejected")
	}
	if _, err := r.Rank([]int64{4, 0}); err == nil {
		t.Error("Rank outside rectangle should fail")
	}
}

func TestRectOrder3D(t *testing.T) {
	r := mustRectOrder([]int64{5, 29, 23})
	seen := map[uint64]bool{}
	for x := int64(0); x < 5; x++ {
		for y := int64(0); y < 29; y++ {
			for z := int64(0); z < 23; z++ {
				rank, err := r.Rank([]int64{x, y, z})
				if err != nil {
					t.Fatal(err)
				}
				if seen[rank] {
					t.Fatal("duplicate rank in 3D rectangle")
				}
				seen[rank] = true
			}
		}
	}
}
