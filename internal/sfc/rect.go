package sfc

import "fmt"

// RectOrder ranks the points of an arbitrary n-dimensional rectangle
// [0,extent[0]) × … × [0,extent[d-1]) along a pseudo-Hilbert order: the
// rectangle is embedded in the smallest enclosing power-of-two hypercube and
// points are ranked by their cube Hilbert index. The rank is a total order
// with the Hilbert locality property — coordinates adjacent on the order are
// close in Euclidean space — which is the property the Hilbert Curve
// partitioner exploits when it assigns contiguous index ranges to nodes.
type RectOrder struct {
	curve   *Curve
	extents []int64
}

// NewRectOrder builds the order for the given per-dimension extents. Every
// extent must be positive.
func NewRectOrder(extents []int64) (*RectOrder, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("sfc: rectangle needs at least one dimension")
	}
	var maxExt int64 = 1
	for i, e := range extents {
		if e <= 0 {
			return nil, fmt.Errorf("sfc: extent %d = %d must be positive", i, e)
		}
		if e > maxExt {
			maxExt = e
		}
	}
	bits := uint(1)
	for int64(1)<<bits < maxExt {
		bits++
	}
	// Dimensionality may force fewer bits than the extent wants; reject
	// only if the cube cannot cover the rectangle within MaxTotalBits.
	if uint(len(extents))*bits > MaxTotalBits {
		return nil, fmt.Errorf("sfc: rectangle %v needs %d total bits, max %d", extents, uint(len(extents))*bits, MaxTotalBits)
	}
	c, err := NewCurve(len(extents), bits)
	if err != nil {
		return nil, err
	}
	return &RectOrder{curve: c, extents: append([]int64(nil), extents...)}, nil
}

// Contains reports whether the coordinate lies inside the rectangle.
func (r *RectOrder) Contains(coords []int64) bool {
	if len(coords) != len(r.extents) {
		return false
	}
	for i, v := range coords {
		if v < 0 || v >= r.extents[i] {
			return false
		}
	}
	return true
}

// Rank returns the pseudo-Hilbert rank of the coordinate. Coordinates
// outside the rectangle return an error.
func (r *RectOrder) Rank(coords []int64) (uint64, error) {
	if !r.Contains(coords) {
		return 0, fmt.Errorf("sfc: coordinate %v outside rectangle %v", coords, r.extents)
	}
	u := make([]uint64, len(coords))
	for i, v := range coords {
		u[i] = uint64(v)
	}
	return r.curve.Index(u)
}

// MaxRank returns the largest rank any in-rectangle coordinate can take
// (the size of the enclosing cube minus one). Ranks are sparse within
// [0, MaxRank] when the rectangle is not a power-of-two cube.
func (r *RectOrder) MaxRank() uint64 { return r.curve.Size() - 1 }
