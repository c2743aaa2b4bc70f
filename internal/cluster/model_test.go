package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

// TestRandomOperationSequences is a model-based test: drive the cluster
// with random insert / scale-out / migrate sequences under every
// partitioner while a trivial reference model (a map of chunk key →
// payload size) tracks what must be true. After every operation the
// cluster's audited state must match the model exactly.
func TestRandomOperationSequences(t *testing.T) {
	for _, kind := range partition.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runRandomSequence(t, kind, seed)
			}
		})
	}
}

func runRandomSequence(t *testing.T, kind string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := testSchema()
	geom := partition.Geometry{Extents: []int64{16, 16}}
	capacity := int64(10 << 20)
	c, err := New(Config{
		InitialNodes: 2,
		NodeCapacity: capacity,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(kind, initial, geom, partition.Options{NodeCapacity: capacity})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(schema); err != nil {
		t.Fatal(err)
	}
	model := make(map[string]int64) // chunk key -> size
	unused := rng.Perm(256)         // chunk-grid slots not yet inserted
	next := 0

	for op := 0; op < 40; op++ {
		switch {
		case next < len(unused) && (rng.Intn(3) != 0 || c.NumNodes() >= 8):
			// Insert a batch of 1-8 fresh chunks.
			n := 1 + rng.Intn(8)
			var batch []*array.Chunk
			for i := 0; i < n && next < len(unused); i++ {
				slot := unused[next]
				next++
				cc := array.ChunkCoord{int64(slot / 16), int64(slot % 16)}
				ch := array.NewChunk(schema, cc)
				origin := schema.ChunkOrigin(cc)
				for k := 0; k < 1+rng.Intn(20); k++ {
					cell := array.Coord{origin[0] + int64(k%4), origin[1] + int64((k/4)%4)}
					ch.AppendCell(cell, []array.CellValue{{Float: rng.Float64()}})
				}
				batch = append(batch, ch)
				model[ch.Ref().Key()] = ch.SizeBytes()
			}
			if _, err := c.Insert(batch); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
		case c.NumNodes() < 8:
			// Scale out by 1 or 2.
			if _, err := c.ScaleOut(1 + rng.Intn(2)); err != nil {
				t.Fatalf("op %d scale-out: %v", op, err)
			}
		}
		// Occasionally migrate a random chunk to a random other node.
		if len(model) > 0 && rng.Intn(4) == 0 {
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			key := keys[rng.Intn(len(keys))]
			ref, _ := array.ParseChunkRef(key)
			from, _ := c.Owner(ref.Packed())
			to := c.Nodes()[rng.Intn(c.NumNodes())]
			if to != from {
				if _, err := migrate(c, []partition.Move{{Ref: ref, From: from, To: to, Size: model[key]}}); err != nil {
					t.Fatalf("op %d migrate: %v", op, err)
				}
			}
		}
		// Audit against the model.
		if err := c.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if c.NumChunks() != len(model) {
			t.Fatalf("op %d: cluster has %d chunks, model %d", op, c.NumChunks(), len(model))
		}
		var want int64
		for _, size := range model {
			want += size
		}
		if c.TotalBytes() != want {
			t.Fatalf("op %d: cluster holds %d bytes, model %d", op, c.TotalBytes(), want)
		}
		for key := range model {
			ref, _ := array.ParseChunkRef(key)
			owner, ok := c.Owner(ref.Packed())
			if !ok {
				t.Fatalf("op %d: chunk %s lost", op, key)
			}
			node, _ := c.Node(owner)
			if _, resident := node.Chunk(ref); !resident {
				t.Fatalf("op %d: catalog places %s on %d but it is not there", op, key, owner)
			}
		}
	}
}

// TestMigrateValidation pins the error paths of the external migration
// entry point.
func TestMigrateValidation(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 3, 6, 23)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	ref := chunks[0].Ref()
	owner, _ := c.Owner(ref.Packed())
	other := partition.NodeID(1 - int(owner))
	// Wrong source node.
	if _, err := migrate(c, []partition.Move{{Ref: ref, From: other, To: owner, Size: 1}}); err == nil {
		t.Error("wrong From should fail")
	}
	// Unknown chunk.
	bogus := array.ChunkRef{Array: "A", Coords: array.ChunkCoord{15, 15}}
	if _, err := migrate(c, []partition.Move{{Ref: bogus, From: 0, To: 1, Size: 1}}); err == nil {
		t.Error("unknown chunk should fail")
	}
	// Empty plan is free.
	d, err := migrate(c, nil)
	if err != nil || d != 0 {
		t.Errorf("empty plan: d=%v err=%v", d, err)
	}
	// A valid move works and is charged.
	d, err = migrate(c, []partition.Move{{Ref: ref, From: owner, To: other, Size: chunks[0].SizeBytes()}})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("migration must take time")
	}
	if got, _ := c.Owner(ref.Packed()); got != other {
		t.Error("migration did not move the chunk")
	}
}
