package partition

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/stats"
)

func TestAppendFillsAndSpills(t *testing.T) {
	p := NewAppend([]NodeID{0, 1}, 100)
	st := newFakeState(0, 1)
	// Three 40-byte chunks fill node 0 past capacity on the third; the
	// fourth spills to node 1.
	for i := int64(0); i < 3; i++ {
		if n := st.ingest(t, p, chunkAt(i, 0, 40)); n != 0 {
			t.Fatalf("chunk %d placed on %d, want 0", i, n)
		}
	}
	if n := st.ingest(t, p, chunkAt(3, 0, 40)); n != 1 {
		t.Fatalf("spill chunk placed on %d, want 1", n)
	}
}

func TestAppendScaleOutIsFree(t *testing.T) {
	p := NewAppend([]NodeID{0, 1}, 1<<20)
	st := newFakeState(0, 1)
	for _, info := range uniformChunks(50, 1<<15, 1) {
		st.ingest(t, p, info)
	}
	moves := st.scaleOut(t, p, 2, 3)
	if len(moves) != 0 {
		t.Fatalf("append must not move data at scale-out, moved %d", len(moves))
	}
}

func TestAppendOverflowGoesToLastNode(t *testing.T) {
	p := NewAppend([]NodeID{0}, 10)
	st := newFakeState(0)
	for i := int64(0); i < 5; i++ {
		if n := st.ingest(t, p, chunkAt(i, 0, 10)); n != 0 {
			t.Fatalf("single-node overflow must stay on node 0, got %d", n)
		}
	}
}

func TestAppendUsesNewNodesAfterScaleOut(t *testing.T) {
	p := NewAppend([]NodeID{0}, 100)
	st := newFakeState(0)
	st.ingest(t, p, chunkAt(0, 0, 120)) // node 0 full
	st.scaleOut(t, p, 1)
	if n := st.ingest(t, p, chunkAt(1, 0, 10)); n != 1 {
		t.Fatalf("post-scale-out insert went to %d, want the new node 1", n)
	}
}

// TestAppendFillResyncsAtScaleOut: placement decisions whose chunks never
// landed (a discarded or invalidated ingest plan) advance the fill table;
// AddNodes must resynchronise against observed storage so the phantom
// bytes do not permanently skip a node with real free capacity.
func TestAppendFillResyncsAtScaleOut(t *testing.T) {
	p := NewAppend([]NodeID{0}, 100)
	st := newFakeState(0)
	st.ingest(t, p, chunkAt(0, 0, 60)) // stored: node 0 at 60/100
	// A planned-but-discarded batch: placed, never recorded in st.
	if _, err := p.PlaceBatch([]array.ChunkInfo{chunkAt(1, 0, 80)}, st); err != nil {
		t.Fatal(err)
	}
	st.scaleOut(t, p, 1)
	// Without the resync the phantom 80 bytes put node 0 at 140 ≥ 100 and
	// this chunk would spill to node 1 despite 40 free bytes on node 0.
	if n := st.ingest(t, p, chunkAt(2, 0, 30)); n != 0 {
		t.Fatalf("post-resync chunk placed on %d, want node 0 (60+30 < 100)", n)
	}
}

func TestRoundRobinEqualCounts(t *testing.T) {
	p, err := NewRoundRobin([]NodeID{0, 1, 2, 4}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	st := newFakeState(0, 1, 2, 4)
	// One chunk in every grid slot: 256 positions over 4 nodes.
	for x := int64(0); x < 16; x++ {
		for y := int64(0); y < 16; y++ {
			st.ingest(t, p, chunkAt(x, y, 1<<10))
		}
	}
	for _, n := range st.Nodes() {
		if got := len(st.NodeChunks(n)); got != 64 {
			t.Errorf("node %d holds %d chunks, want 64", n, got)
		}
	}
}

func TestRoundRobinCollocatesCongruentArrays(t *testing.T) {
	p, err := NewRoundRobin([]NodeID{0, 1, 2}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	st := newFakeState(0, 1, 2)
	a := array.ChunkInfo{Ref: array.ChunkRef{Array: "Band1", Coords: array.ChunkCoord{3, 7}}, Size: 100}
	b := array.ChunkInfo{Ref: array.ChunkRef{Array: "Band2", Coords: array.ChunkCoord{3, 7}}, Size: 100}
	if st.ingest(t, p, a) != st.ingest(t, p, b) {
		t.Error("equal positions of congruent arrays must collocate")
	}
}

func TestRoundRobinRebalancesGlobally(t *testing.T) {
	p, err := NewRoundRobin([]NodeID{0, 1}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	st := newFakeState(0, 1)
	for x := int64(0); x < 16; x++ {
		for y := int64(0); y < 16; y++ {
			st.ingest(t, p, chunkAt(x, y, 1<<10))
		}
	}
	st.scaleOut(t, p, 2, 3)
	// After rebalance all four nodes hold 64 chunks each.
	for _, n := range st.Nodes() {
		if got := len(st.NodeChunks(n)); got != 64 {
			t.Errorf("node %d holds %d chunks, want 64", n, got)
		}
	}
}

func TestConsistentHashCollocatesCongruentArrays(t *testing.T) {
	p := NewConsistentHash([]NodeID{0, 1, 2}, 0)
	st := newFakeState(0, 1, 2)
	a := array.ChunkInfo{Ref: array.ChunkRef{Array: "Band1", Coords: array.ChunkCoord{5, 2}}, Size: 100}
	b := array.ChunkInfo{Ref: array.ChunkRef{Array: "Band2", Coords: array.ChunkCoord{5, 2}}, Size: 100}
	if st.ingest(t, p, a) != st.ingest(t, p, b) {
		t.Error("equal positions of congruent arrays must collocate")
	}
}

func TestConsistentHashBalance(t *testing.T) {
	p := NewConsistentHash([]NodeID{0, 1, 2, 3}, 0)
	st := newFakeState(0, 1, 2, 3)
	for _, info := range uniformChunks(240, 1<<10, 6) {
		st.ingest(t, p, info)
	}
	loads := st.loads()
	if rsd := stats.RSD(loads); rsd > 0.5 {
		t.Errorf("consistent hash RSD %.2f too high: %s", rsd, fmtLoads(loads))
	}
}

func TestExtendibleHashSplitsMostLoaded(t *testing.T) {
	p := NewExtendibleHash([]NodeID{0, 1})
	st := newFakeState(0, 1)
	for _, info := range skewedChunks(21) {
		st.ingest(t, p, info)
	}
	before := st.loads()
	maxBefore := math.Max(before[0], before[1])
	moves := st.scaleOut(t, p, 2)
	if len(moves) == 0 {
		t.Fatal("split should move data")
	}
	// All moves must originate from a single victim (the most loaded).
	src := moves[0].From
	for _, m := range moves {
		if m.From != src {
			t.Fatalf("moves from multiple sources %d and %d on a single split", src, m.From)
		}
	}
	if float64(st.NodeLoad(src)) >= maxBefore {
		t.Error("split must reduce the victim's load")
	}
}

func TestExtendibleHashDirectoryCoversSpace(t *testing.T) {
	// After several uneven splits, every hash value must still map to
	// exactly one bucket.
	p := NewExtendibleHash([]NodeID{0, 1, 2}) // non power of two
	st := newFakeState(0, 1, 2)
	for _, info := range skewedChunks(23) {
		st.ingest(t, p, info)
	}
	st.scaleOut(t, p, 3)
	st.scaleOut(t, p, 4, 5)
	f := func(h uint64) bool {
		matches := 0
		for _, b := range p.buckets {
			if b.matches(h) {
				matches++
			}
		}
		return matches == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHilbertSegmentsPartitionRankSpace(t *testing.T) {
	p, err := NewHilbertCurve([]NodeID{0, 1, 2}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	if p.bounds[0] != 0 {
		t.Error("rank space must start at 0")
	}
	for i := 1; i < len(p.bounds); i++ {
		if p.bounds[i] < p.bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", p.bounds)
		}
	}
	if p.bounds[len(p.bounds)-1] != p.total {
		t.Errorf("rank space must end at the composite total")
	}
}

func TestHilbertSpatialCoherence(t *testing.T) {
	// Chunks on the same node should be spatially closer to each other
	// than to chunks on other nodes — the clustering property the
	// science benchmarks exploit.
	p := build(t, KindHilbert, []NodeID{0, 1})
	st := newFakeState(0, 1)
	for _, info := range uniformChunks(200, 1<<12, 31) {
		st.ingest(t, p, info)
	}
	st.scaleOut(t, p, 2, 3)
	intra, inter := meanPairDistances(st)
	if intra >= inter {
		t.Errorf("hilbert intra-node distance %.2f should beat inter-node %.2f", intra, inter)
	}
	// Contrast: consistent hash scatters, so intra ≈ inter.
	p2 := build(t, KindConsistent, []NodeID{0, 1})
	st2 := newFakeState(0, 1)
	for _, info := range uniformChunks(200, 1<<12, 31) {
		st2.ingest(t, p2, info)
	}
	st2.scaleOut(t, p2, 2, 3)
	intra2, inter2 := meanPairDistances(st2)
	if intra2 < inter2*0.8 {
		t.Errorf("consistent hash should not cluster: intra %.2f inter %.2f", intra2, inter2)
	}
}

func meanPairDistances(st *fakeState) (intra, inter float64) {
	var intraSum, interSum float64
	var intraN, interN int
	keys := make([]array.ChunkKey, 0, len(st.owner))
	for k := range st.owner {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		ri := keys[i].Ref()
		for j := i + 1; j < len(keys); j++ {
			rj := keys[j].Ref()
			var d float64
			for k := range ri.Coords {
				dx := float64(ri.Coords[k] - rj.Coords[k])
				d += dx * dx
			}
			d = math.Sqrt(d)
			if st.owner[keys[i]] == st.owner[keys[j]] {
				intraSum += d
				intraN++
			} else {
				interSum += d
				interN++
			}
		}
	}
	return intraSum / float64(intraN), interSum / float64(interN)
}

func TestKdTreeMedianBeatsMidpointOnSkew(t *testing.T) {
	rsdWith := func(midpoint bool) float64 {
		p, err := NewKdTree([]NodeID{0, 1}, grid16(), midpoint)
		if err != nil {
			t.Fatal(err)
		}
		st := newFakeState(0, 1)
		for _, info := range skewedChunks(37) {
			st.ingest(t, p, info)
		}
		st.scaleOut(t, p, 2, 3)
		st.scaleOut(t, p, 4, 5)
		return stats.RSD(st.loads())
	}
	median, midpoint := rsdWith(false), rsdWith(true)
	if median >= midpoint {
		t.Errorf("median splits RSD %.3f should beat midpoint %.3f on skew", median, midpoint)
	}
}

func TestKdTreeLeafPerNode(t *testing.T) {
	p, err := NewKdTree([]NodeID{0, 1, 2, 3, 4}, grid16(), false)
	if err != nil {
		t.Fatal(err)
	}
	leaves := p.leaves()
	if len(leaves) != 5 {
		t.Fatalf("tree has %d leaves, want 5", len(leaves))
	}
	seen := map[NodeID]bool{}
	var vol int64
	for _, l := range leaves {
		if seen[l.node] {
			t.Fatalf("node %d owns two leaves", l.node)
		}
		seen[l.node] = true
		vol += l.box.Volume()
	}
	if vol != 256 {
		t.Errorf("leaves cover %d slots, want 256", vol)
	}
}

func TestQuadtreeRegionsPartitionGrid(t *testing.T) {
	p, err := NewIncrQuadtree([]NodeID{0, 1, 2}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	st := newFakeState(0, 1, 2)
	for _, info := range skewedChunks(41) {
		st.ingest(t, p, info)
	}
	st.scaleOut(t, p, 3)
	st.scaleOut(t, p, 4, 5)
	// Every grid slot must be covered by exactly one region.
	for x := int64(0); x < 16; x++ {
		for y := int64(0); y < 16; y++ {
			hits := 0
			for _, r := range p.regions {
				if r.box.Contains(array.ChunkCoord{x, y}) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("slot (%d,%d) covered by %d regions", x, y, hits)
			}
		}
	}
	// Every node must own at least one region.
	owned := map[NodeID]bool{}
	for _, r := range p.regions {
		owned[r.node] = true
	}
	for _, n := range st.Nodes() {
		if !owned[n] {
			t.Errorf("node %d owns no region", n)
		}
	}
}

func TestQuadtreeSplitTakesRoughlyHalf(t *testing.T) {
	p, err := NewIncrQuadtree([]NodeID{0}, grid16())
	if err != nil {
		t.Fatal(err)
	}
	st := newFakeState(0)
	for _, info := range uniformChunks(200, 1<<12, 43) {
		st.ingest(t, p, info)
	}
	total := st.NodeLoad(0)
	st.scaleOut(t, p, 1)
	got := float64(st.NodeLoad(1)) / float64(total)
	if got < 0.25 || got > 0.75 {
		t.Errorf("new node took %.0f%% of the victim's storage, want near half", got*100)
	}
}

func TestUniformRangeLeafCountAndBlocks(t *testing.T) {
	p, err := NewUniformRange([]NodeID{0, 1, 2}, grid16(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.leaves) != 64 {
		t.Fatalf("height 6 over 16x16 should give 64 leaves, got %d", len(p.leaves))
	}
	// Blocks must be contiguous and monotone in traversal order.
	prev := NodeID(0)
	for i := range p.leaves {
		n := p.ownerOfLeaf(i)
		if n < prev {
			t.Fatalf("leaf blocks not monotone at leaf %d", i)
		}
		prev = n
	}
}

func TestUniformRangeBalancedOnUniformData(t *testing.T) {
	p := build(t, KindUniform, []NodeID{0, 1})
	st := newFakeState(0, 1)
	// One equal-size chunk in every grid slot: perfectly uniform.
	for x := int64(0); x < 16; x++ {
		for y := int64(0); y < 16; y++ {
			st.ingest(t, p, chunkAt(x, y, 1000))
		}
	}
	st.scaleOut(t, p, 2, 3)
	if rsd := stats.RSD(st.loads()); rsd > 0.05 {
		t.Errorf("uniform range on uniform data RSD %.3f, want ~0", rsd)
	}
}

func TestUniformRangeBrittleUnderSkew(t *testing.T) {
	// Section 6.2.2: "AIS shows that Uniform Range is brittle to skew."
	rsdOf := func(kind string) float64 {
		p := build(t, kind, []NodeID{0, 1})
		st := newFakeState(0, 1)
		for _, info := range skewedChunks(47) {
			st.ingest(t, p, info)
		}
		st.scaleOut(t, p, 2, 3)
		return stats.RSD(st.loads())
	}
	if rsdOf(KindUniform) <= rsdOf(KindKdTree) {
		t.Errorf("uniform range RSD %.3f should exceed skew-aware k-d tree %.3f on skew",
			rsdOf(KindUniform), rsdOf(KindKdTree))
	}
}

func TestHilbertClampsOutOfGridChunks(t *testing.T) {
	p := build(t, KindHilbert, []NodeID{0, 1})
	st := newFakeState(0, 1)
	// A chunk beyond the planning horizon must still be placeable.
	info := chunkAt(99, 99, 1<<10)
	n := st.ingest(t, p, info)
	if n != 0 && n != 1 {
		t.Fatalf("clamped chunk placed on %d", n)
	}
}
