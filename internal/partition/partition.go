package partition

import (
	"fmt"
	"sort"

	"repro/internal/array"
)

// NodeID identifies a cluster node. IDs are dense and ascending in the
// order nodes were provisioned, which the global schemes exploit.
type NodeID int

// Move is one chunk relocation in a migration plan.
type Move struct {
	Ref  array.ChunkRef
	From NodeID
	To   NodeID
	Size int64
}

// State is the read-only view of current physical placement a partitioner
// consults when making decisions. The cluster implements it.
type State interface {
	// Nodes returns the IDs of all nodes currently in the cluster, in
	// ascending order, excluding any nodes being added in the current
	// AddNodes call.
	Nodes() []NodeID
	// NodeLoad returns the bytes stored on the node.
	NodeLoad(NodeID) int64
	// NodeChunks returns the chunks resident on the node in canonical
	// (array, coordinate) order.
	NodeChunks(NodeID) []array.ChunkInfo
	// Owner returns the node currently holding the chunk, identified by
	// its packed key (allocation-free on the lookup hot path).
	Owner(array.ChunkKey) (NodeID, bool)
}

// Features is the Table 1 taxonomy: which of the four elastic-placement
// traits a scheme implements.
type Features struct {
	// IncrementalScaleOut: reorganisation sends data only from
	// preexisting nodes to new ones.
	IncrementalScaleOut bool
	// FineGrained: chunks are assigned one at a time rather than by
	// subdividing planes of array space.
	FineGrained bool
	// SkewAware: repartitioning decisions consult the observed storage
	// footprint rather than logical chunk counts.
	SkewAware bool
	// NDimensionalClustering: contiguous chunks in array space tend to
	// be collocated, aiding spatial queries.
	NDimensionalClustering bool
}

// Assignment is one decision of a batch placement: a chunk and the node it
// goes to.
type Assignment struct {
	Info array.ChunkInfo
	Node NodeID
}

// Placer is the batch placement contract. PlaceBatch maps every chunk of an
// ingest batch to a destination node and updates the scheme's internal
// table, returning one Assignment per input in the same order
// (out[i].Info == infos[i]). The chunks are new — none is visible in st —
// and they are processed in slice order, so a batch call decides exactly
// like a sequence of single-chunk calls; callers pass batches in canonical
// chunk order to keep placement deterministic. Implementations must not
// retain infos (the cluster reuses the backing array across calls). The
// error return is for schemes that can reject a batch outright; the eight
// in-repo schemes always place and return nil.
type Placer interface {
	PlaceBatch(infos []array.ChunkInfo, st State) ([]Assignment, error)
}

// Partitioner is an elastic data-placement scheme.
type Partitioner interface {
	// Name returns the scheme's display name as used in the paper's
	// figures ("K-d Tree", "Round Robin", …).
	Name() string
	// Features returns the scheme's Table 1 row.
	Features() Features
	// Placer supplies batch ingest placement (PlaceBatch).
	Placer
	// AddNodes integrates newly provisioned nodes into the partitioning
	// table and returns the migration plan that brings physical
	// placement in line with the revised table. newNodes are not yet
	// visible in st.Nodes().
	AddNodes(newNodes []NodeID, st State) ([]Move, error)
}

// Geometry describes the chunk grid the spatial partitioners divide: the
// number of chunk slots along each dimension. Unbounded dimensions are
// given a planning horizon by the caller (e.g. the number of workload
// cycles); chunks arriving beyond it are clamped to the final slab.
type Geometry struct {
	Extents []int64
	// SpatialDims lists the dimensions the range partitioners divide
	// (split planes, quarters, space-filling order). Empty means all.
	//
	// Arrays that grow along an unbounded dimension (time series) must
	// exclude that dimension: a range cut through the growth axis sends
	// every future insert to the last partition, destroying balance
	// between scale-outs. Excluding it gives each node a region of
	// array space that receives its proportional share of every new
	// slab — each partition holds all of time for its region, which is
	// the "evenly distribute the time dimension" behaviour the paper
	// credits the skew-aware range partitioners with (Section 6.2.2).
	SpatialDims []int
}

// Validate checks the geometry is usable.
func (g Geometry) Validate() error {
	if len(g.Extents) == 0 {
		return fmt.Errorf("partition: geometry needs at least one dimension")
	}
	for i, e := range g.Extents {
		if e <= 0 {
			return fmt.Errorf("partition: geometry extent %d = %d must be positive", i, e)
		}
	}
	seen := make(map[int]bool)
	for _, d := range g.SpatialDims {
		if d < 0 || d >= len(g.Extents) {
			return fmt.Errorf("partition: spatial dim %d out of range", d)
		}
		if seen[d] {
			return fmt.Errorf("partition: spatial dim %d repeated", d)
		}
		seen[d] = true
	}
	return nil
}

// spatialDims returns the configured spatial dimensions, defaulting to all.
func (g Geometry) spatialDims() []int {
	if len(g.SpatialDims) > 0 {
		return g.SpatialDims
	}
	out := make([]int, len(g.Extents))
	for i := range out {
		out[i] = i
	}
	return out
}

// growthDims returns the dimensions not listed as spatial, in index order.
func (g Geometry) growthDims() []int {
	spatial := make(map[int]bool)
	for _, d := range g.spatialDims() {
		spatial[d] = true
	}
	var out []int
	for i := range g.Extents {
		if !spatial[i] {
			out = append(out, i)
		}
	}
	return out
}

// Clamp forces a chunk coordinate into the grid, mapping overflow on any
// axis to the last slab (and negative indexes to the first).
func (g Geometry) Clamp(cc array.ChunkCoord) array.ChunkCoord {
	return g.ClampInto(cc, nil)
}

// ClampInto is Clamp writing into buf (reusing its capacity) — the
// allocation-free variant for batch placement loops. Pass the previous
// iteration's return value as buf.
func (g Geometry) ClampInto(cc array.ChunkCoord, buf array.ChunkCoord) array.ChunkCoord {
	out := append(buf[:0], cc...)
	for i := range out {
		if i >= len(g.Extents) {
			break
		}
		if out[i] < 0 {
			out[i] = 0
		}
		if out[i] >= g.Extents[i] {
			out[i] = g.Extents[i] - 1
		}
	}
	return out
}

// hashRef hashes a chunk's full packed identity — array and grid position —
// to a well-dispersed 64-bit value. The extendible-hash directory derives
// bucket membership from it. The raw FNV pass lives on the key types
// (array.ChunkKey.Hash — the same hash the cluster's sharded catalog
// spreads shards with); the splitmix finalizer here disperses it for
// bucket-pattern use.
//
// The array identity is part of the hash: keying on position alone made
// same-coordinate chunks of every array collide onto one bucket, so a
// multi-array database degenerated to a single array's distribution.
// Congruent-array collocation for the structural join (Figure 6) is the
// position-keyed schemes' behaviour — Consistent Hash and Round Robin keep
// it via hashCoord.
func hashRef(key array.ChunkKey) uint64 {
	return mix64(key.Hash())
}

// hashCoord hashes a packed grid position alone — the position-keyed hash
// the Consistent Hash ring uses so congruent arrays collocate equal
// coordinates.
func hashCoord(ck array.CoordKey) uint64 {
	return mix64(ck.Hash())
}

// mix64 is the splitmix64 finalizer: near-identical keys (neighbouring
// chunk coordinates) must not land on correlated positions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mostLoaded returns the node with the largest storage footprint, breaking
// ties by lowest ID so decisions are deterministic.
func mostLoaded(nodes []NodeID, st State) NodeID {
	if len(nodes) == 0 {
		panic("partition: mostLoaded over no nodes")
	}
	best := nodes[0]
	bestLoad := st.NodeLoad(best)
	for _, n := range nodes[1:] {
		l := st.NodeLoad(n)
		if l > bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// validateNewNodes rejects empty or duplicate additions and additions of
// nodes already present.
func validateNewNodes(newNodes []NodeID, st State) error {
	if len(newNodes) == 0 {
		return fmt.Errorf("partition: AddNodes with no nodes")
	}
	existing := make(map[NodeID]bool)
	for _, n := range st.Nodes() {
		existing[n] = true
	}
	seen := make(map[NodeID]bool)
	for _, n := range newNodes {
		if existing[n] {
			return fmt.Errorf("partition: node %d already in cluster", n)
		}
		if seen[n] {
			return fmt.Errorf("partition: node %d added twice", n)
		}
		seen[n] = true
	}
	return nil
}

// allChunks gathers every resident chunk across the cluster in canonical
// order.
func allChunks(st State) []array.ChunkInfo {
	var out []array.ChunkInfo
	for _, n := range st.Nodes() {
		out = append(out, st.NodeChunks(n)...)
	}
	array.SortChunkInfos(out)
	return out
}

// sortMoves orders a migration plan canonically (array name, then numeric
// chunk coordinate) so plans are reproducible run to run.
func sortMoves(moves []Move) {
	sort.Slice(moves, func(i, j int) bool {
		a, b := moves[i].Ref, moves[j].Ref
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		return a.Coords.Less(b.Coords)
	})
}
