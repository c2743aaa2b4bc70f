package partition

import (
	"testing"

	"repro/internal/array"
)

// TestBatchPlacementEqualsSequential is the batch-contract property test:
// for every scheme, placing a whole batch in one PlaceBatch call yields
// exactly the assignments that placing the same chunks one call at a time
// does — byte-identical destinations, including for the stateful Append
// table and across an interleaved scale-out.
func TestBatchPlacementEqualsSequential(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			chunks := skewedChunks(29)
			half := len(chunks) / 2

			phase := func(t *testing.T, pBatch, pSeq Partitioner, stBatch, stSeq *fakeState, infos []array.ChunkInfo) {
				t.Helper()
				asgn, err := pBatch.PlaceBatch(infos, stBatch)
				if err != nil {
					t.Fatalf("PlaceBatch: %v", err)
				}
				if len(asgn) != len(infos) {
					t.Fatalf("PlaceBatch returned %d assignments for %d chunks", len(asgn), len(infos))
				}
				for i, a := range asgn {
					if a.Info.Ref.Key() != infos[i].Ref.Key() || a.Info.Size != infos[i].Size {
						t.Fatalf("assignment %d is %+v, want info %+v in input order", i, a.Info, infos[i])
					}
					seq := placeOne(t, pSeq, infos[i], stSeq)
					if a.Node != seq {
						t.Fatalf("chunk %s: batch placed on %d, sequential on %d", infos[i].Ref, a.Node, seq)
					}
					stBatch.chunks[infos[i].Ref.Packed()] = infos[i]
					stBatch.owner[infos[i].Ref.Packed()] = a.Node
					stSeq.chunks[infos[i].Ref.Packed()] = infos[i]
					stSeq.owner[infos[i].Ref.Packed()] = seq
				}
			}

			pBatch := build(t, kind, []NodeID{0, 1})
			pSeq := build(t, kind, []NodeID{0, 1})
			stBatch, stSeq := newFakeState(0, 1), newFakeState(0, 1)
			phase(t, pBatch, pSeq, stBatch, stSeq, chunks[:half])
			stBatch.scaleOut(t, pBatch, 2, 3)
			stSeq.scaleOut(t, pSeq, 2, 3)
			phase(t, pBatch, pSeq, stBatch, stSeq, chunks[half:])
		})
	}
}

// TestPlaceBatchEmpty pins the degenerate batch: no chunks, no
// assignments, no error, no table movement.
func TestPlaceBatchEmpty(t *testing.T) {
	for _, kind := range Kinds() {
		p := build(t, kind, []NodeID{0, 1})
		asgn, err := p.PlaceBatch(nil, newFakeState(0, 1))
		if err != nil {
			t.Fatalf("%s: empty batch errored: %v", kind, err)
		}
		if len(asgn) != 0 {
			t.Fatalf("%s: empty batch produced %d assignments", kind, len(asgn))
		}
	}
}
