// Package partition implements the paper's eight elastic data-placement
// schemes for multidimensional arrays (Section 4): Append, Consistent Hash,
// Extendible Hash, Hilbert Curve, Incremental Quadtree, K-d Tree, Uniform
// Range, and the Round Robin baseline.
//
// A Partitioner makes two kinds of decisions, both batch-shaped. During
// ingest, PlaceBatch maps a whole batch of new chunks to destination nodes
// in one call — the Placer contract — returning one Assignment per chunk in
// input order. The cluster turns those assignments into an executable
// IngestPlan (validate → place → write in parallel per destination node);
// schemes see the batch at once, so they can hoist per-chunk work (rank
// buffers, directory probes) out of the loop while still deciding exactly
// as if the chunks had arrived one at a time. When the cluster scales out,
// AddNodes integrates the fresh nodes into the partitioning table and
// returns an explicit migration plan. Incremental schemes produce plans
// that move chunks only from preexisting nodes to new ones; the global
// schemes (Round Robin, Uniform Range) may reshuffle arbitrarily — exactly
// the trade-off Table 1 of the paper taxonomises.
//
// # The PlaceBatch contract
//
// PlaceBatch(infos, st) must return exactly one Assignment per input, in
// input order (out[i].Info == infos[i]), and must advance the scheme's
// internal table as if the chunks had been placed one at a time in slice
// order — callers pass batches in canonical (array, coordinate) order, so
// placement is deterministic regardless of how a batch was assembled. The
// batch's chunks are new: none is visible in st when the call is made.
// Implementations must not retain the infos slice (the cluster reuses its
// backing array across batches). The error return is for schemes that can
// reject a batch outright; the eight in-repo schemes always place and
// return nil.
//
// Partitioners never touch chunk payloads: they see array.ChunkInfo
// (identity, grid position, physical size) and a read-only State view of
// current placement, and they keep whatever internal table (hash ring,
// bucket directory, region tree, …) their algorithm requires.
package partition
