package sfc

import "fmt"

// mustCurve is NewCurve for fixed test literals.
func mustCurve(dims int, bits uint) *Curve {
	c, err := NewCurve(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// mustRectOrder is NewRectOrder for fixed test literals.
func mustRectOrder(extents []int64) *RectOrder {
	r, err := NewRectOrder(extents)
	if err != nil {
		panic(err)
	}
	return r
}

// coords returns the coordinate at Hilbert index h: the inverse of Index,
// which the tests check Index against.
func (c *Curve) coords(h uint64) ([]uint64, error) {
	if h >= c.Size() {
		return nil, fmt.Errorf("sfc: index %d outside curve of size %d", h, c.Size())
	}
	x := c.indexToTranspose(h)
	transposeToAxes(x, c.bits)
	return x, nil
}

// indexToTranspose is the inverse of transposeToIndex.
func (c *Curve) indexToTranspose(h uint64) []uint64 {
	x := make([]uint64, c.dims)
	pos := int(c.bits)*c.dims - 1
	for b := int(c.bits) - 1; b >= 0; b-- {
		for i := 0; i < c.dims; i++ {
			x[i] |= ((h >> uint(pos)) & 1) << uint(b)
			pos--
		}
	}
	return x
}

// transposeToAxes is the inverse of axesToTranspose (Skilling's
// "TransposetoAxes").
func transposeToAxes(x []uint64, bits uint) {
	n := len(x)
	m := uint64(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
