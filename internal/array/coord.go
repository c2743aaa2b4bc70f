package array

import (
	"fmt"
	"strconv"
	"strings"
)

// Coord is the position of a cell in logical array space, one value per
// dimension in schema order.
type Coord []int64

func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// ChunkCoord is the position of a chunk in the chunk grid: the 0-based chunk
// index along each dimension in schema order.
type ChunkCoord []int64

// Clone returns a copy of the chunk coordinate.
func (c ChunkCoord) Clone() ChunkCoord { return append(ChunkCoord(nil), c...) }

// Key renders the chunk coordinate as a compact, comparable map key.
func (c ChunkCoord) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

func (c ChunkCoord) String() string { return "[" + c.Key() + "]" }

// Less imposes a total lexicographic order on chunk coordinates of equal
// dimensionality; used to keep placement iteration deterministic.
func (c ChunkCoord) Less(o ChunkCoord) bool {
	for i := range c {
		if i >= len(o) {
			return false
		}
		if c[i] != o[i] {
			return c[i] < o[i]
		}
	}
	return len(c) < len(o)
}

// parseChunkCoord is the inverse of ChunkCoord.Key.
func parseChunkCoord(key string) (ChunkCoord, error) {
	if key == "" {
		return nil, fmt.Errorf("array: empty chunk coordinate key")
	}
	parts := strings.Split(key, "/")
	cc := make(ChunkCoord, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("array: bad chunk coordinate key %q: %v", key, err)
		}
		cc[i] = v
	}
	return cc, nil
}

// ChunkRef globally identifies a chunk: the array it belongs to plus its
// position in that array's chunk grid. It is the handle partitioners and
// the cluster use; the chunk payload itself lives in a node's store.
type ChunkRef struct {
	Array  string
	Coords ChunkCoord
}

// Key renders the reference as a map key, unique across arrays.
func (r ChunkRef) Key() string { return r.Array + ":" + r.Coords.Key() }

func (r ChunkRef) String() string { return r.Key() }

// ParseChunkRef is the inverse of Key.
func ParseChunkRef(key string) (ChunkRef, error) {
	i := strings.IndexByte(key, ':')
	if i < 0 {
		return ChunkRef{}, fmt.Errorf("array: bad chunk ref key %q", key)
	}
	cc, err := parseChunkCoord(key[i+1:])
	if err != nil {
		return ChunkRef{}, err
	}
	return ChunkRef{Array: key[:i], Coords: cc}, nil
}

// ChunkOf maps a cell coordinate to the chunk coordinate that contains it.
// It panics if the coordinate has the wrong dimensionality.
func (s *Schema) ChunkOf(cell Coord) ChunkCoord {
	if len(cell) != len(s.Dims) {
		panic(fmt.Sprintf("array: coordinate %v has %d dims, schema %s has %d", cell, len(cell), s.Name, len(s.Dims)))
	}
	cc := make(ChunkCoord, len(cell))
	for i, d := range s.Dims {
		cc[i] = d.ChunkIndex(cell[i])
	}
	return cc
}

// ChunkOrigin returns the smallest cell coordinate of the given chunk.
func (s *Schema) ChunkOrigin(cc ChunkCoord) Coord {
	o := make(Coord, len(cc))
	for i, d := range s.Dims {
		o[i] = d.ChunkOrigin(cc[i])
	}
	return o
}

// ValidCell reports whether every coordinate lies inside the declared
// dimension ranges.
func (s *Schema) ValidCell(cell Coord) bool {
	if len(cell) != len(s.Dims) {
		return false
	}
	for i, d := range s.Dims {
		if !d.Contains(cell[i]) {
			return false
		}
	}
	return true
}

// ValidChunk reports whether the chunk coordinate addresses a chunk whose
// origin lies inside the declared ranges.
func (s *Schema) ValidChunk(cc ChunkCoord) bool {
	if len(cc) != len(s.Dims) {
		return false
	}
	for i, d := range s.Dims {
		if cc[i] < 0 {
			return false
		}
		if d.Bounded() && cc[i] >= d.NumChunks() {
			return false
		}
	}
	return true
}

// ChunkBounds returns the inclusive cell-coordinate bounds of the chunk:
// its origin and the last cell it can contain (clipped to bounded
// dimension ranges).
func (s *Schema) ChunkBounds(cc ChunkCoord) (lo, hi Coord) {
	lo = s.ChunkOrigin(cc)
	hi = make(Coord, len(cc))
	for i, d := range s.Dims {
		hi[i] = lo[i] + d.ChunkInterval - 1
		if d.Bounded() && hi[i] > d.End {
			hi[i] = d.End
		}
	}
	return lo, hi
}
