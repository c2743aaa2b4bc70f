package cluster

import (
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

// loadedBenchCluster is a 4-node cluster holding n inserted bench chunks.
func loadedBenchCluster(b *testing.B, n int) (*Cluster, []*array.Chunk) {
	b.Helper()
	c := newBenchCluster(b, 4)
	chunks := makeBenchChunks(b, n, 20)
	if _, err := c.Insert(chunks); err != nil {
		b.Fatal(err)
	}
	return c, chunks
}

// BenchmarkOwnerLookup measures the placement hot path's core operation:
// mapping a resident chunk to its owning node, as the catalog, queries and
// validation do on every touch. Chunks carry their packed key, so this is
// a single map probe.
func BenchmarkOwnerLookup(b *testing.B) {
	c, chunks := loadedBenchCluster(b, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Owner(chunks[i%len(chunks)].Key()); !ok {
			b.Fatal("chunk lost")
		}
	}
}

// BenchmarkOwnerLookupFromRef is the same lookup starting from a bare
// ChunkRef (no cached key), paying the array-name intern on every call —
// the partitioners' AddNodes path.
func BenchmarkOwnerLookupFromRef(b *testing.B) {
	c, chunks := loadedBenchCluster(b, 120)
	refs := make([]array.ChunkRef, len(chunks))
	for i, ch := range chunks {
		refs[i] = ch.Ref()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Owner(refs[i%len(refs)].Packed()); !ok {
			b.Fatal("chunk lost")
		}
	}
}

// BenchmarkInsertBatch measures end-to-end ingest of one batch of chunks
// into a fresh cluster, plan and catalog updates included.
func BenchmarkInsertBatch(b *testing.B) {
	chunks := makeBenchChunks(b, 60, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newBenchCluster(b, 4)
		b.StartTimer()
		if _, err := c.Insert(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleOut(b *testing.B) {
	chunks := makeBenchChunks(b, 120, 20)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newBenchCluster(b, 2)
		if _, err := c.Insert(chunks); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.ScaleOut(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	c, _ := loadedBenchCluster(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchCluster(b *testing.B, nodes int) *Cluster {
	b.Helper()
	c, err := New(Config{
		InitialNodes: nodes,
		NodeCapacity: 64 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewKdTree(initial, partition.Geometry{Extents: []int64{16, 16}}, false)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		b.Fatal(err)
	}
	return c
}

func makeBenchChunks(b *testing.B, n, cells int) []*array.Chunk {
	b.Helper()
	return makeChunks(b, n, cells, 99)
}
