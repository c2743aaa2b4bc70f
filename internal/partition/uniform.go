package partition

import (
	"fmt"

	"repro/internal/array"
)

// DefaultUniformHeight is the tree height h (l = 2^h leaves) used by the
// Uniform Range partitioner when the caller does not override it. 2^8 =
// 256 leaves is "much greater than the anticipated cluster size" for the
// paper's 8-node testbed while keeping lookup cheap.
const DefaultUniformHeight = 8

// uNode is a node of the uniform range tree.
type uNode struct {
	box         Box
	dim         int
	at          int64
	left, right *uNode
	leafIndex   int // valid for leaves (left == nil)
}

// UniformRange is the paper's global n-dimensional range scheme: a tall,
// balanced binary tree slices the grid into l = 2^h leaves; node i of an
// n-node cluster owns the i-th block of l/n leaves in traversal order.
// This keeps arrays clustered in dimension space with near-perfect logical
// balance for any n — but every scale-out recomputes the blocks, cascading
// moves across most of the cluster, and the leaf blocks ignore physical
// sizes entirely (not skew-aware).
type UniformRange struct {
	geom   Geometry
	root   *uNode
	leaves []*uNode // traversal order
	nodes  []NodeID
}

// NewUniformRange builds the tree of height `height` (0 means
// DefaultUniformHeight). Dimensions too narrow to halve stop splitting
// early, so the leaf count may be less than 2^height on tiny grids.
func NewUniformRange(initial []NodeID, geom Geometry, height int) (*UniformRange, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("partition: UniformRange needs at least one initial node")
	}
	if height <= 0 {
		height = DefaultUniformHeight
	}
	p := &UniformRange{geom: geom, nodes: append([]NodeID(nil), initial...)}
	p.root = p.build(RootBox(geom), 0, height)
	p.index(p.root)
	if len(p.leaves) < len(initial) {
		return nil, fmt.Errorf("partition: %d leaves cannot cover %d nodes; increase height or grid", len(p.leaves), len(initial))
	}
	return p, nil
}

// build recursively halves the box, cycling dimensions by depth and
// skipping unsplittable ones.
func (p *UniformRange) build(box Box, depth, height int) *uNode {
	n := &uNode{box: box}
	if depth >= height {
		return n
	}
	spatial := p.geom.spatialDims()
	dim := -1
	for k := 0; k < len(spatial); k++ {
		d := spatial[(depth+k)%len(spatial)]
		if box.Splittable(d) {
			dim = d
			break
		}
	}
	if dim < 0 {
		return n // spatial slots exhausted; leave growth axes intact
	}
	mid := box.Lo[dim] + box.Span(dim)/2
	lower, upper := box.SplitAt(dim, mid)
	n.dim = dim
	n.at = mid
	n.left = p.build(lower, depth+1, height)
	n.right = p.build(upper, depth+1, height)
	return n
}

// index assigns traversal-order leaf indexes.
func (p *UniformRange) index(n *uNode) {
	if n.left == nil {
		n.leafIndex = len(p.leaves)
		p.leaves = append(p.leaves, n)
		return
	}
	p.index(n.left)
	p.index(n.right)
}

// Name implements Partitioner.
func (p *UniformRange) Name() string { return "Uniform Range" }

// Features implements Partitioner: n-dimensional clustering only.
func (p *UniformRange) Features() Features {
	return Features{NDimensionalClustering: true}
}

// leafOf walks the tree to the leaf containing the coordinate.
func (p *UniformRange) leafOf(cc array.ChunkCoord) *uNode {
	n := p.root
	for n.left != nil {
		if cc[n.dim] < n.at {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// ownerOfLeaf maps a leaf index to its block's node: node i owns leaves
// [i*l/n, (i+1)*l/n).
func (p *UniformRange) ownerOfLeaf(leafIndex int) NodeID {
	l := len(p.leaves)
	n := len(p.nodes)
	return p.nodes[leafIndex*n/l]
}

// PlaceBatch implements Placer: one tree descent per chunk with the clamp
// buffer hoisted out of the loop; the leaf blocks do not change within a
// batch.
func (p *UniformRange) PlaceBatch(infos []array.ChunkInfo, st State) ([]Assignment, error) {
	out := make([]Assignment, len(infos))
	var ccBuf array.ChunkCoord
	for i, info := range infos {
		ccBuf = p.geom.ClampInto(info.Ref.Coords, ccBuf)
		out[i] = Assignment{Info: info, Node: p.ownerOfLeaf(p.leafOf(ccBuf).leafIndex)}
	}
	return out, nil
}

// AddNodes implements Partitioner: append the nodes, recompute every
// leaf's block — a linear pass over the l leaves, exactly the paper's
// description — and emit the (global) difference as moves.
func (p *UniformRange) AddNodes(newNodes []NodeID, st State) ([]Move, error) {
	if err := validateNewNodes(newNodes, st); err != nil {
		return nil, err
	}
	p.nodes = append(p.nodes, newNodes...)
	var moves []Move
	for _, info := range allChunks(st) {
		leaf := p.leafOf(p.geom.Clamp(info.Ref.Coords))
		want := p.ownerOfLeaf(leaf.leafIndex)
		cur, _ := st.Owner(info.Ref.Packed())
		if cur != want {
			moves = append(moves, Move{Ref: info.Ref, From: cur, To: want, Size: info.Size})
		}
	}
	sortMoves(moves)
	return moves, nil
}
