package partition

import (
	"testing"

	"repro/internal/array"
	"repro/internal/stats"
)

// TestTable1Taxonomy pins every scheme's Features to its Table 1 row.
func TestTable1Taxonomy(t *testing.T) {
	want := map[string]Features{
		KindAppend:     {IncrementalScaleOut: true, SkewAware: true},
		KindConsistent: {IncrementalScaleOut: true, FineGrained: true},
		KindExtendible: {IncrementalScaleOut: true, FineGrained: true, SkewAware: true},
		KindHilbert:    {IncrementalScaleOut: true, SkewAware: true, NDimensionalClustering: true},
		KindQuadtree:   {IncrementalScaleOut: true, SkewAware: true, NDimensionalClustering: true},
		KindKdTree:     {IncrementalScaleOut: true, SkewAware: true, NDimensionalClustering: true},
		KindRoundRobin: {FineGrained: true},
		KindUniform:    {NDimensionalClustering: true},
	}
	for kind, feats := range want {
		p := build(t, kind, []NodeID{0, 1})
		if got := p.Features(); got != feats {
			t.Errorf("%s Features = %+v, want %+v", kind, got, feats)
		}
	}
}

// TestAllSchemesLifecycle exercises every scheme through the paper's
// experimental shape — start with 2 nodes, ingest, grow to 4, 6, 8 — and
// checks the structural invariants of placement and migration.
func TestAllSchemesLifecycle(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := build(t, kind, []NodeID{0, 1})
			st := newFakeState(0, 1)
			chunks := skewedChunks(7)
			third := len(chunks) / 3
			for _, info := range chunks[:third] {
				st.ingest(t, p, info)
			}
			st.scaleOut(t, p, 2, 3)
			for _, info := range chunks[third : 2*third] {
				st.ingest(t, p, info)
			}
			st.scaleOut(t, p, 4, 5)
			for _, info := range chunks[2*third:] {
				st.ingest(t, p, info)
			}
			st.scaleOut(t, p, 6, 7)

			// Every chunk must still be owned by a valid node.
			for key, owner := range st.owner {
				if !st.hasNode(owner) {
					t.Fatalf("chunk %s owned by unknown node %d", key, owner)
				}
			}
			if len(st.owner) != len(chunks) {
				t.Fatalf("catalog has %d chunks, want %d", len(st.owner), len(chunks))
			}
		})
	}
}

// TestIncrementalSchemesMoveOnlyToNewNodes verifies the defining Table 1
// property: incremental scale-out never shuffles data between preexisting
// nodes.
func TestIncrementalSchemesMoveOnlyToNewNodes(t *testing.T) {
	for _, kind := range Kinds() {
		p := build(t, kind, []NodeID{0, 1})
		if !p.Features().IncrementalScaleOut {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			p := build(t, kind, []NodeID{0, 1})
			st := newFakeState(0, 1)
			for _, info := range skewedChunks(11) {
				st.ingest(t, p, info)
			}
			moves := st.scaleOut(t, p, 2, 3)
			for _, m := range moves {
				if m.To != 2 && m.To != 3 {
					t.Fatalf("%s moved %s to preexisting node %d", kind, m.Ref, m.To)
				}
			}
			moves = st.scaleOut(t, p, 4)
			for _, m := range moves {
				if m.To != 4 {
					t.Fatalf("%s second scale-out moved %s to node %d", kind, m.Ref, m.To)
				}
			}
		})
	}
}

// TestGlobalSchemesShuffleBetweenOldNodes documents the converse: the
// global schemes move data between preexisting nodes at scale-out.
func TestGlobalSchemesShuffleBetweenOldNodes(t *testing.T) {
	for _, kind := range []string{KindRoundRobin, KindUniform} {
		t.Run(kind, func(t *testing.T) {
			p := build(t, kind, []NodeID{0, 1, 2})
			st := newFakeState(0, 1, 2)
			for _, info := range uniformChunks(150, 1<<16, 5) {
				st.ingest(t, p, info)
			}
			moves := st.scaleOut(t, p, 3, 4)
			oldToOld := 0
			for _, m := range moves {
				if m.To < 3 {
					oldToOld++
				}
			}
			if oldToOld == 0 {
				t.Errorf("%s is expected to shuffle between old nodes; plan had %d moves, none old→old", kind, len(moves))
			}
		})
	}
}

// TestPlacementDeterminism runs every scheme twice over the same inputs
// and requires byte-identical decisions.
func TestPlacementDeterminism(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			run := func() map[array.ChunkKey]NodeID {
				p := build(t, kind, []NodeID{0, 1})
				st := newFakeState(0, 1)
				chunks := skewedChunks(3)
				for _, info := range chunks[:100] {
					st.ingest(t, p, info)
				}
				st.scaleOut(t, p, 2, 3)
				for _, info := range chunks[100:] {
					st.ingest(t, p, info)
				}
				st.scaleOut(t, p, 4, 5)
				out := make(map[array.ChunkKey]NodeID, len(st.owner))
				for k, v := range st.owner {
					out[k] = v
				}
				return out
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("runs disagree on chunk count")
			}
			for k, v := range a {
				if b[k] != v {
					t.Fatalf("chunk %s placed on %d then %d", k, v, b[k])
				}
			}
		})
	}
}

// TestAddNodesValidation checks the shared argument validation.
func TestAddNodesValidation(t *testing.T) {
	for _, kind := range Kinds() {
		p := build(t, kind, []NodeID{0, 1})
		st := newFakeState(0, 1)
		if _, err := p.AddNodes(nil, st); err == nil {
			t.Errorf("%s: empty AddNodes should fail", kind)
		}
		p = build(t, kind, []NodeID{0, 1})
		if _, err := p.AddNodes([]NodeID{1}, st); err == nil {
			t.Errorf("%s: re-adding node 1 should fail", kind)
		}
		p = build(t, kind, []NodeID{0, 1})
		if _, err := p.AddNodes([]NodeID{2, 2}, st); err == nil {
			t.Errorf("%s: duplicate new node should fail", kind)
		}
	}
}

// TestFineGrainedSchemesBalanceBetter reproduces the Section 6.2.1
// finding: the fine-grained schemes' storage RSD beats the coarse range
// schemes' by a wide margin on skewed data.
func TestFineGrainedSchemesBalanceBetter(t *testing.T) {
	rsdOf := func(kind string) float64 {
		p := build(t, kind, []NodeID{0, 1})
		st := newFakeState(0, 1)
		chunks := skewedChunks(13)
		half := len(chunks) / 2
		for _, info := range chunks[:half] {
			st.ingest(t, p, info)
		}
		st.scaleOut(t, p, 2, 3)
		for _, info := range chunks[half:] {
			st.ingest(t, p, info)
		}
		st.scaleOut(t, p, 4, 5, 6, 7)
		return stats.RSD(st.loads())
	}
	fine := (rsdOf(KindRoundRobin) + rsdOf(KindConsistent) + rsdOf(KindExtendible)) / 3
	coarse := (rsdOf(KindAppend) + rsdOf(KindUniform)) / 2
	if fine >= coarse {
		t.Errorf("fine-grained mean RSD %.3f should beat coarse %.3f", fine, coarse)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", []NodeID{0}, grid16(), Options{}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := New(KindAppend, []NodeID{0}, grid16(), Options{}); err == nil {
		t.Error("append without capacity should fail")
	}
	if _, err := New(KindKdTree, nil, grid16(), Options{}); err == nil {
		t.Error("no initial nodes should fail")
	}
	if _, err := New(KindHilbert, []NodeID{0}, Geometry{}, Options{}); err == nil {
		t.Error("hilbert without geometry should fail")
	}
}

// TestMoveSizesMatchCatalog double-checks plans carry the right sizes (the
// cluster charges network time from them).
func TestMoveSizesMatchCatalog(t *testing.T) {
	p := build(t, KindConsistent, []NodeID{0, 1})
	st := newFakeState(0, 1)
	for _, info := range uniformChunks(100, 1<<18, 2) {
		st.ingest(t, p, info)
	}
	moves := st.scaleOut(t, p, 2)
	if len(moves) == 0 {
		t.Fatal("expected some moves")
	}
	for _, m := range moves {
		if m.Size != st.chunks[m.Ref.Packed()].Size {
			t.Fatalf("move %s size %d != catalog %d", m.Ref, m.Size, st.chunks[m.Ref.Packed()].Size)
		}
	}
}

// TestOwnershipMatchesPlaceAfterScaleOut: after a scale-out, re-asking the
// partitioner where an existing chunk would go must agree with the
// catalog (the partitioner's table and the physical layout stay in sync).
func TestOwnershipMatchesPlaceAfterScaleOut(t *testing.T) {
	for _, kind := range []string{KindConsistent, KindExtendible, KindHilbert, KindQuadtree, KindKdTree, KindUniform, KindRoundRobin} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := build(t, kind, []NodeID{0, 1})
			st := newFakeState(0, 1)
			chunks := skewedChunks(17)
			for _, info := range chunks {
				st.ingest(t, p, info)
			}
			st.scaleOut(t, p, 2, 3)
			for _, info := range chunks {
				want := placeOne(t, p, info, st)
				got, _ := st.Owner(info.Ref.Packed())
				if got != want {
					t.Fatalf("%s: catalog says %s on %d, table says %d", kind, info.Ref, got, want)
				}
			}
		})
	}
}

var _ = array.ChunkInfo{} // keep import when build tags shift

// TestHashRefIncludesArray pins the fix for the cross-array collision: the
// chunk hash covers the array identity, so same-coordinate chunks of
// different arrays hash apart (the old position-only hash made every
// array's grid collapse onto one distribution).
func TestHashRefIncludesArray(t *testing.T) {
	coords := array.ChunkCoord{5, 2}
	a := array.ChunkRef{Array: "HashA", Coords: coords}.Packed()
	b := array.ChunkRef{Array: "HashB", Coords: coords}.Packed()
	if hashRef(a) == hashRef(b) {
		t.Error("same-coordinate chunks of different arrays must hash apart")
	}
	if hashRef(a) != hashRef(a) {
		t.Error("hashRef must be deterministic")
	}
	// hashCoord stays position-only: the Consistent Hash ring relies on it
	// to collocate congruent arrays' equal positions.
	if hashCoord(a.Coord()) != hashCoord(b.Coord()) {
		t.Error("hashCoord must depend on position only")
	}
}
