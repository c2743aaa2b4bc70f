// Package sfc implements the space-filling-curve machinery behind the
// Hilbert Curve elastic partitioner (Section 4.2 of the paper): an
// n-dimensional Hilbert transform (Skilling's transpose algorithm) plus a
// generalized pseudo-Hilbert order for arbitrary (non power-of-two,
// non-square) rectangles, in the spirit of Zhang et al.'s pseudo-Hilbert
// scan for rectangles, which the paper cites as [32].
//
// The partitioner only needs a total order over chunk coordinates in which
// neighbours on the curve are close in Euclidean space; the rectangle
// generalization embeds the grid in the smallest enclosing power-of-two
// hypercube and ranks occupied coordinates by their cube Hilbert index,
// preserving that locality property for every grid shape.
package sfc

import "fmt"

// MaxTotalBits is the largest dims*bits product supported: the Hilbert
// index must fit in a uint64.
const MaxTotalBits = 63

// Curve maps between n-dimensional coordinates and positions on a Hilbert
// curve filling the hypercube [0, 2^bits)^dims.
type Curve struct {
	dims int
	bits uint
}

// NewCurve returns a Hilbert curve over [0, 2^bits)^dims.
func NewCurve(dims int, bits uint) (*Curve, error) {
	if dims < 1 {
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if bits < 1 {
		return nil, fmt.Errorf("sfc: bits must be >= 1, got %d", bits)
	}
	if uint(dims)*bits > MaxTotalBits {
		return nil, fmt.Errorf("sfc: dims*bits = %d exceeds %d", uint(dims)*bits, MaxTotalBits)
	}
	return &Curve{dims: dims, bits: bits}, nil
}

// MustCurve is NewCurve that panics on error.
func MustCurve(dims int, bits uint) *Curve {
	c, err := NewCurve(dims, bits)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of points on the curve (2^(dims*bits)).
func (c *Curve) Size() uint64 { return 1 << (uint(c.dims) * c.bits) }

// Index returns the Hilbert index of the coordinate. Each coordinate must
// lie in [0, 2^bits).
func (c *Curve) Index(coords []uint64) (uint64, error) {
	if len(coords) != c.dims {
		return 0, fmt.Errorf("sfc: got %d coordinates, curve has %d dims", len(coords), c.dims)
	}
	limit := uint64(1) << c.bits
	x := make([]uint64, c.dims)
	for i, v := range coords {
		if v >= limit {
			return 0, fmt.Errorf("sfc: coordinate %d = %d outside [0,%d)", i, v, limit)
		}
		x[i] = v
	}
	axesToTranspose(x, c.bits)
	return c.transposeToIndex(x), nil
}

// Coords returns the coordinate at Hilbert index h (the inverse of Index).
func (c *Curve) Coords(h uint64) ([]uint64, error) {
	if h >= c.Size() {
		return nil, fmt.Errorf("sfc: index %d outside curve of size %d", h, c.Size())
	}
	x := c.indexToTranspose(h)
	transposeToAxes(x, c.bits)
	return x, nil
}

// transposeToIndex interleaves the transpose representation into a single
// integer: bit (bits-1) of x[0] is the most significant bit of the index,
// followed by bit (bits-1) of x[1], and so on.
func (c *Curve) transposeToIndex(x []uint64) uint64 {
	var h uint64
	for b := int(c.bits) - 1; b >= 0; b-- {
		for i := 0; i < c.dims; i++ {
			h = (h << 1) | ((x[i] >> uint(b)) & 1)
		}
	}
	return h
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

// axesToTranspose converts cartesian coordinates (b bits each) into the
// transposed Hilbert representation in place. This is Skilling's
// "AxestoTranspose" (Programming the Hilbert curve, 2004).
func axesToTranspose(x []uint64, bits uint) {
	n := len(x)
	m := uint64(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
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
