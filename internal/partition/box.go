package partition

import (
	"fmt"
	"strings"

	"repro/internal/array"
)

// Box is an axis-aligned hyperrectangle in chunk-grid space, lower bound
// inclusive, upper bound exclusive. The region partitioners (Incremental
// Quadtree, K-d Tree, Uniform Range) divide the grid into disjoint boxes
// and assign each box to a node.
type Box struct {
	Lo, Hi []int64
}

// NewBox returns the box [lo, hi). It panics if the bounds are malformed;
// boxes are internal construction, not user input.
func NewBox(lo, hi []int64) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("partition: box bounds of different arity %v / %v", lo, hi))
	}
	for i := range lo {
		if hi[i] < lo[i] {
			panic(fmt.Sprintf("partition: inverted box bound on dim %d: [%d,%d)", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: append([]int64(nil), lo...), Hi: append([]int64(nil), hi...)}
}

// RootBox returns the box covering an entire chunk grid.
func RootBox(g Geometry) Box {
	lo := make([]int64, len(g.Extents))
	return NewBox(lo, append([]int64(nil), g.Extents...))
}

// Dims returns the box's dimensionality.
func (b Box) Dims() int { return len(b.Lo) }

// Contains reports whether the chunk coordinate lies inside the box.
func (b Box) Contains(cc array.ChunkCoord) bool {
	if len(cc) != len(b.Lo) {
		return false
	}
	for i := range cc {
		if cc[i] < b.Lo[i] || cc[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Span returns the box's width along dim.
func (b Box) Span(dim int) int64 { return b.Hi[dim] - b.Lo[dim] }

// Volume returns the number of chunk slots the box covers.
func (b Box) Volume() int64 {
	v := int64(1)
	for i := range b.Lo {
		v *= b.Span(i)
	}
	return v
}

// SplitAt cuts the box on dim at coordinate `at` (Lo[dim] < at < Hi[dim]),
// returning the lower half [Lo, at) and upper half [at, Hi).
func (b Box) SplitAt(dim int, at int64) (lower, upper Box) {
	if at <= b.Lo[dim] || at >= b.Hi[dim] {
		panic(fmt.Sprintf("partition: split of %v on dim %d at %d is degenerate", b, dim, at))
	}
	lower = NewBox(b.Lo, b.Hi)
	upper = NewBox(b.Lo, b.Hi)
	lower.Hi[dim] = at
	upper.Lo[dim] = at
	return lower, upper
}

// Splittable reports whether the box has more than one slot along dim.
func (b Box) Splittable(dim int) bool { return b.Span(dim) > 1 }

// Adjacent reports whether two boxes share a face: they touch (one's lower
// bound equals the other's upper bound on exactly one axis) and overlap on
// every other axis. Used by the Incremental Quadtree to find the "pair of
// adjacent quarters" it hands to a new node.
func (b Box) Adjacent(o Box) bool {
	if b.Dims() != o.Dims() {
		return false
	}
	touching := 0
	for i := range b.Lo {
		if b.Hi[i] == o.Lo[i] || o.Hi[i] == b.Lo[i] {
			// Touching on this axis; the remaining axes must overlap.
			touching++
			continue
		}
		// Must overlap on this axis.
		if b.Hi[i] <= o.Lo[i] || o.Hi[i] <= b.Lo[i] {
			return false
		}
	}
	return touching == 1
}

// LongestDims returns the indexes of the k dims with the largest spans,
// ties broken by lower index; used by the quadtree to pick which two axes
// to quarter on.
func (b Box) LongestDims(k int) []int {
	idx := make([]int, b.Dims())
	for i := range idx {
		idx[i] = i
	}
	// Stable selection sort by span descending, index ascending.
	for i := 0; i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if b.Span(idx[j]) > b.Span(idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func (b Box) String() string {
	var s strings.Builder
	s.WriteByte('[')
	for i := range b.Lo {
		if i > 0 {
			s.WriteByte(' ')
		}
		fmt.Fprintf(&s, "%d..%d", b.Lo[i], b.Hi[i])
	}
	s.WriteByte(']')
	return s.String()
}
