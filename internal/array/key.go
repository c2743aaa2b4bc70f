package array

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxKeyDims is the largest dimensionality a packed chunk key can carry.
// Both of the paper's workloads (and every array in this repository) are
// 2- or 3-dimensional; four slots leave headroom without giving up the
// fixed-size, comparable representation the placement hot path relies on.
const MaxKeyDims = 4

// ArrayID is the interned identity of an array name. IDs are assigned in
// registration order starting at 1; the zero value is invalid and marks an
// unset key.
type ArrayID uint32

// arrayReg is the process-wide array-name intern table. Names are never
// unregistered: the set of arrays in a simulation is tiny (a handful of
// schemas) and stable for the life of the process. Reads are lock-free —
// the table is copy-on-write, so the hot path (ChunkRef.Packed on every
// ownership lookup) is a single atomic load plus a map probe.
var arrayReg = struct {
	mu     sync.Mutex // serialises writers only
	byName atomic.Pointer[map[string]ArrayID]
	names  atomic.Pointer[[]string] // (*names)[id-1] == name
}{}

func init() {
	empty := make(map[string]ArrayID)
	arrayReg.byName.Store(&empty)
	names := []string{}
	arrayReg.names.Store(&names)
}

// InternArrayName returns the stable ArrayID for the name, assigning one on
// first use. The fast path is a lock-free map lookup with no allocation.
func InternArrayName(name string) ArrayID {
	if id, ok := (*arrayReg.byName.Load())[name]; ok {
		return id
	}
	arrayReg.mu.Lock()
	defer arrayReg.mu.Unlock()
	oldIDs := *arrayReg.byName.Load()
	if id, ok := oldIDs[name]; ok {
		return id
	}
	oldNames := *arrayReg.names.Load()
	names := append(append(make([]string, 0, len(oldNames)+1), oldNames...), name)
	id := ArrayID(len(names))
	ids := make(map[string]ArrayID, len(oldIDs)+1)
	for k, v := range oldIDs {
		ids[k] = v
	}
	ids[name] = id
	arrayReg.names.Store(&names)
	arrayReg.byName.Store(&ids)
	return id
}

// Name resolves the interned name. The zero (invalid) ID resolves to "".
func (id ArrayID) Name() string {
	names := *arrayReg.names.Load()
	if id == 0 || int(id) > len(names) {
		return ""
	}
	return names[id-1]
}

// CoordKey is a fixed-size, comparable packing of a coordinate of up to
// MaxKeyDims dimensions — usable directly as a map key with no per-lookup
// allocation. It packs cell coordinates (Coord) and chunk-grid coordinates
// (ChunkCoord) alike; negative values are preserved verbatim.
type CoordKey struct {
	n uint8
	c [MaxKeyDims]int64
}

// PackCoords packs a coordinate slice, rejecting dimensionalities the
// fixed-size key cannot represent.
func PackCoords(vs []int64) (CoordKey, error) {
	if len(vs) > MaxKeyDims {
		return CoordKey{}, fmt.Errorf("array: cannot pack %d-dimensional coordinate %v into a key (max %d dims)", len(vs), vs, MaxKeyDims)
	}
	var k CoordKey
	k.n = uint8(len(vs))
	copy(k.c[:], vs)
	return k, nil
}

// Packed packs the chunk coordinate. It panics when the coordinate exceeds
// MaxKeyDims dimensions, which NewSchema rules out for schema-derived
// coordinates.
func (c ChunkCoord) Packed() CoordKey {
	k, err := PackCoords(c)
	if err != nil {
		panic(err)
	}
	return k
}

// Packed packs the cell coordinate (same representation as chunk-grid
// coordinates; the two never share a map).
func (c Coord) Packed() CoordKey {
	k, err := PackCoords(c)
	if err != nil {
		panic(err)
	}
	return k
}

// NumDims returns the packed dimensionality.
func (k CoordKey) NumDims() int { return int(k.n) }

// At returns the coordinate along dimension d.
func (k CoordKey) At(d int) int64 {
	if d < 0 || d >= int(k.n) {
		panic(fmt.Sprintf("array: coord key dimension %d out of range (key has %d)", d, k.n))
	}
	return k.c[d]
}

// Coords unpacks to a freshly allocated chunk coordinate.
func (k CoordKey) Coords() ChunkCoord {
	out := make(ChunkCoord, k.n)
	copy(out, k.c[:k.n])
	return out
}

// AppendTo unpacks into dst (reusing its capacity) and returns the result —
// the allocation-free counterpart of Coords.
func (k CoordKey) AppendTo(dst []int64) []int64 {
	return append(dst[:0], k.c[:k.n]...)
}

// Less imposes the canonical lexicographic-by-dimension order used wherever
// placement code iterates coordinate sets deterministically. Unlike string
// key ordering it is numeric: chunk 2 sorts before chunk 10.
func (k CoordKey) Less(o CoordKey) bool {
	n := k.n
	if o.n < n {
		n = o.n
	}
	for i := uint8(0); i < n; i++ {
		if k.c[i] != o.c[i] {
			return k.c[i] < o.c[i]
		}
	}
	return k.n < o.n
}

func (k CoordKey) String() string { return k.Coords().String() }

// FNV-1a parameters for the key hashes below.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvWord folds one 64-bit word into a running FNV-1a-style hash with a
// single xor-multiply — one multiply per word instead of eight per-byte
// rounds, which matters on the ingest hot path where every catalog probe
// hashes a key. Word-wise folding weakens low-bit avalanche relative to
// byte-wise FNV, so every consumer finishes the hash: the catalog folds
// the high half down before masking a shard, and the placement schemes run
// the result through a splitmix finalizer.
func fnvWord(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime64
}

// Hash returns a 64-bit hash of the packed coordinate (dimension count,
// then each coordinate). Allocation-free; position-only, so equal
// positions of different arrays hash equal — the collocation property the
// position-keyed placement schemes rely on.
func (k CoordKey) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(k.n))
	for i := uint8(0); i < k.n; i++ {
		h = fnvWord(h, uint64(k.c[i]))
	}
	return h
}

// ChunkKey is the packed global identity of a chunk: the interned array ID
// plus the packed chunk-grid coordinate. It is fixed-size and comparable,
// which makes it the map key for every ownership, catalog, and co-access
// structure on the placement hot path — lookups and inserts allocate
// nothing, where the string form (ChunkRef.Key) allocated on every call.
// The string form remains the wire/file/diagnostic format.
type ChunkKey struct {
	arr   ArrayID
	coord CoordKey
}

// MakeChunkKey assembles a key from an interned array ID and a packed
// coordinate.
func MakeChunkKey(id ArrayID, coord CoordKey) ChunkKey {
	return ChunkKey{arr: id, coord: coord}
}

// Packed interns the array name and packs the coordinates. Hot paths that
// hold a *Schema should prefer Schema-based construction (Chunk.Key, or
// MakeChunkKey over Schema.ID), which skips the intern-table lookup.
func (r ChunkRef) Packed() ChunkKey {
	return ChunkKey{arr: InternArrayName(r.Array), coord: r.Coords.Packed()}
}

// Array returns the interned array identity.
func (k ChunkKey) Array() ArrayID { return k.arr }

// ArrayName resolves the array name.
func (k ChunkKey) ArrayName() string { return k.arr.Name() }

// Coord returns the packed chunk-grid coordinate.
func (k ChunkKey) Coord() CoordKey { return k.coord }

// Ref unpacks to the string-keyed reference form used for wire format, file
// names and human-readable errors.
func (k ChunkKey) Ref() ChunkRef {
	return ChunkRef{Array: k.arr.Name(), Coords: k.coord.Coords()}
}

// IsZero reports whether the key is the unset zero value.
func (k ChunkKey) IsZero() bool { return k.arr == 0 }

// Hash returns a 64-bit hash of the full packed identity: array id,
// dimension count, then each coordinate. Allocation-free. The cluster's
// sharded catalog selects shards from it and the extendible-hash directory
// derives bucket membership from it (after dispersal).
func (k ChunkKey) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(k.arr))
	h = fnvWord(h, uint64(k.coord.n))
	for i := uint8(0); i < k.coord.n; i++ {
		h = fnvWord(h, uint64(k.coord.c[i]))
	}
	return h
}

// Less orders keys canonically: array name (not intern order, so ordering
// is independent of registration sequence) then coordinate.
func (k ChunkKey) Less(o ChunkKey) bool {
	if k.arr != o.arr {
		return k.arr.Name() < o.arr.Name()
	}
	return k.coord.Less(o.coord)
}

func (k ChunkKey) String() string { return k.Ref().String() }

// PackedChunkOf maps a cell coordinate to the packed chunk-grid coordinate
// containing it without allocating. It panics on dimensionality mismatch,
// like ChunkOf.
func (s *Schema) PackedChunkOf(cell Coord) CoordKey {
	if len(cell) != len(s.Dims) {
		panic(fmt.Sprintf("array: coordinate %v has %d dims, schema %s has %d", cell, len(cell), s.Name, len(s.Dims)))
	}
	var k CoordKey
	k.n = uint8(len(cell))
	for i, d := range s.Dims {
		k.c[i] = d.ChunkIndex(cell[i])
	}
	return k
}
