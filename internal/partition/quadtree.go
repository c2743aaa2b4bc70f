package partition

import (
	"fmt"
	"sort"

	"repro/internal/array"
)

// qRegion is one box of the quadtree partition and the node that owns it.
type qRegion struct {
	box  Box
	node NodeID
}

// IncrQuadtree is the paper's Incremental Quadtree (Section 4.2): a binary
// space partitioner that keeps array space intact while scaling out one
// node at a time. When the cluster grows, the scheme quarters the most
// heavily burdened node's region (on its two longest axes) and hands the
// quarter — or pair of adjacent quarters — whose summed storage is closest
// to half of the victim's load to the new node. Unlike a classic quadtree
// that would need three new hosts per split, every split here feeds exactly
// one new node, making scale-out incremental.
type IncrQuadtree struct {
	geom    Geometry
	regions []qRegion
}

// NewIncrQuadtree builds the partitioner, quartering the root recursively
// (no data yet, so quarters are geometric) until there are at least as many
// regions as initial nodes, then assigning regions to nodes in contiguous
// blocks.
func NewIncrQuadtree(initial []NodeID, geom Geometry) (*IncrQuadtree, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("partition: IncrQuadtree needs at least one initial node")
	}
	boxes := []Box{RootBox(geom)}
	for len(boxes) < len(initial) {
		// Quarter the largest box.
		sort.SliceStable(boxes, func(i, j int) bool { return boxes[i].Volume() > boxes[j].Volume() })
		q := quarter(boxes[0], geom.spatialDims())
		if len(q) < 2 {
			return nil, fmt.Errorf("partition: grid %v too small for %d initial nodes", geom.Extents, len(initial))
		}
		boxes = append(q, boxes[1:]...)
	}
	p := &IncrQuadtree{geom: geom}
	n := len(initial)
	for i, b := range boxes {
		p.regions = append(p.regions, qRegion{box: b, node: initial[i*n/len(boxes)]})
	}
	return p, nil
}

// quarter splits a box at the midpoints of its two longest splittable
// spatial axes, yielding up to four quarters (two if only one axis is
// splittable; just the box itself if none are). A nil/empty spatial list
// means all axes qualify; growth axes are used only when no spatial axis
// can be split.
func quarter(b Box, spatial []int) []Box {
	allowed := make(map[int]bool)
	if len(spatial) == 0 {
		for d := 0; d < b.Dims(); d++ {
			allowed[d] = true
		}
	} else {
		for _, d := range spatial {
			allowed[d] = true
		}
	}
	var dims []int
	for _, d := range b.LongestDims(b.Dims()) {
		if allowed[d] && b.Splittable(d) {
			dims = append(dims, d)
		}
		if len(dims) == 2 {
			break
		}
	}
	if len(dims) == 0 {
		for _, d := range b.LongestDims(b.Dims()) {
			if b.Splittable(d) {
				dims = append(dims, d)
			}
			if len(dims) == 2 {
				break
			}
		}
	}
	out := []Box{b}
	for _, d := range dims {
		var next []Box
		for _, bb := range out {
			mid := bb.Lo[d] + bb.Span(d)/2
			if mid <= bb.Lo[d] || mid >= bb.Hi[d] {
				next = append(next, bb)
				continue
			}
			lo, hi := bb.SplitAt(d, mid)
			next = append(next, lo, hi)
		}
		out = next
	}
	return out
}

// Name implements Partitioner.
func (p *IncrQuadtree) Name() string { return "Incr. Quadtree" }

// Features implements Partitioner: incremental, skew-aware, n-dimensional.
func (p *IncrQuadtree) Features() Features {
	return Features{IncrementalScaleOut: true, SkewAware: true, NDimensionalClustering: true}
}

// ownerOf locates the region containing an already-clamped coordinate by a
// linear walk of the region list (the list is small — one to a few boxes
// per node).
func (p *IncrQuadtree) ownerOf(cc array.ChunkCoord) NodeID {
	for _, r := range p.regions {
		if r.box.Contains(cc) {
			return r.node
		}
	}
	panic(fmt.Sprintf("partition: quadtree regions do not cover chunk %v", cc))
}

// PlaceBatch implements Placer: one region walk per chunk with the clamp
// buffer hoisted out of the loop; the region list does not change within a
// batch.
func (p *IncrQuadtree) PlaceBatch(infos []array.ChunkInfo, st State) ([]Assignment, error) {
	out := make([]Assignment, len(infos))
	var ccBuf array.ChunkCoord
	for i, info := range infos {
		ccBuf = p.geom.ClampInto(info.Ref.Coords, ccBuf)
		out[i] = Assignment{Info: info, Node: p.ownerOf(ccBuf)}
	}
	return out, nil
}

// AddNodes implements Partitioner, applying the paper's split rule per new
// node: quarter the most burdened host's single region (or reuse its
// existing quarters), then move the quarter or adjacent pair whose summed
// size is closest to half the host's storage to the new node.
func (p *IncrQuadtree) AddNodes(newNodes []NodeID, st State) ([]Move, error) {
	if err := validateNewNodes(newNodes, st); err != nil {
		return nil, err
	}
	chunks := allChunks(st)
	boxBytes := func(b Box) int64 {
		var s int64
		for _, info := range chunks {
			if b.Contains(p.geom.Clamp(info.Ref.Coords)) {
				s += info.Size
			}
		}
		return s
	}
	load := make(map[NodeID]int64)
	for _, n := range st.Nodes() {
		load[n] = 0
	}
	for _, r := range p.regions {
		load[r.node] += boxBytes(r.box)
	}
	for _, newNode := range newNodes {
		// Walk candidates by descending load: the hottest node may hold
		// a single unsplittable slot — fall back to the next burdened
		// node whose holding can be subdivided.
		var victim NodeID
		var mine []Box
		var keep []qRegion
		found := false
		for _, cand := range nodesByLoadDesc(load) {
			mine, keep = mine[:0], keep[:0]
			for _, r := range p.regions {
				if r.node == cand {
					mine = append(mine, r.box)
				} else {
					keep = append(keep, r)
				}
			}
			if len(mine) == 0 {
				return nil, fmt.Errorf("partition: node %d owns no quadtree region", cand)
			}
			if len(mine) == 1 {
				mine = quarter(mine[0], p.geom.spatialDims())
			}
			if len(mine) > 1 {
				victim, found = cand, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("partition: no quadtree region can absorb node %d (grid exhausted)", newNode)
		}
		chosen := chooseHalf(mine, boxBytes, load[victim])
		var movedBytes int64
		for i, b := range mine {
			owner := victim
			if chosen[i] {
				owner = newNode
				movedBytes += boxBytes(b)
			}
			keep = append(keep, qRegion{box: b, node: owner})
		}
		p.regions = keep
		load[victim] -= movedBytes
		load[newNode] = movedBytes
	}
	p.sortRegions()
	var moves []Move
	for _, info := range chunks {
		want := p.ownerOf(p.geom.Clamp(info.Ref.Coords))
		cur, _ := st.Owner(info.Ref.Packed())
		if cur != want {
			moves = append(moves, Move{Ref: info.Ref, From: cur, To: want, Size: info.Size})
		}
	}
	sortMoves(moves)
	return moves, nil
}

// chooseHalf returns a mask over boxes marking the single box or pair of
// adjacent boxes whose summed bytes are closest to half of total; ties
// prefer the candidate with fewer boxes, then lower index order, keeping
// the decision deterministic.
func chooseHalf(boxes []Box, bytesOf func(Box) int64, total int64) []bool {
	half := total / 2
	sizes := make([]int64, len(boxes))
	for i, b := range boxes {
		sizes[i] = bytesOf(b)
	}
	bestDiff := int64(-1)
	bestMask := make([]bool, len(boxes))
	consider := func(mask []bool, sum int64) {
		diff := sum - half
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			bestDiff = diff
			copy(bestMask, mask)
		}
	}
	mask := make([]bool, len(boxes))
	// Singles.
	for i := range boxes {
		for j := range mask {
			mask[j] = false
		}
		mask[i] = true
		consider(mask, sizes[i])
	}
	// Adjacent pairs — but never the whole region set: the victim must
	// keep at least one box so it can still receive placements.
	for i := range boxes {
		if len(boxes) <= 2 {
			break
		}
		for j := i + 1; j < len(boxes); j++ {
			if !boxes[i].Adjacent(boxes[j]) {
				continue
			}
			for k := range mask {
				mask[k] = false
			}
			mask[i], mask[j] = true, true
			consider(mask, sizes[i]+sizes[j])
		}
	}
	return bestMask
}

// sortRegions keeps the region list in deterministic order (by box lower
// corner) so Place iteration is reproducible.
func (p *IncrQuadtree) sortRegions() {
	sort.SliceStable(p.regions, func(i, j int) bool {
		a, b := p.regions[i].box, p.regions[j].box
		for d := range a.Lo {
			if a.Lo[d] != b.Lo[d] {
				return a.Lo[d] < b.Lo[d]
			}
			if a.Hi[d] != b.Hi[d] {
				return a.Hi[d] < b.Hi[d]
			}
		}
		return p.regions[i].node < p.regions[j].node
	})
}
