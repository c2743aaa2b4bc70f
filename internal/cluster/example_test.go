package cluster_test

import (
	"fmt"
	"log"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// ExampleCluster_PlanInsert walks the two-phase ingest lifecycle: plan a
// batch (validate, place, reserve), execute it (parallel per-destination
// writes), and discard a plan that is not going to run so its catalog
// reservations are released.
func ExampleCluster_PlanInsert() {
	schema, err := array.NewSchema("Grid",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 15, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes: 2,
		NodeCapacity: 1 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(partition.KindRoundRobin, initial,
				partition.Geometry{Extents: []int64{4, 4}}, partition.Options{})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DefineArray(schema); err != nil {
		log.Fatal(err)
	}

	// One chunk per grid slot of the first column, each holding one cell.
	var batch []*array.Chunk
	for y := int64(0); y < 4; y++ {
		ch := array.NewChunk(schema, array.ChunkCoord{0, y})
		ch.AppendCell(array.Coord{0, y * 4}, []array.CellValue{{Float: float64(y)}})
		batch = append(batch, ch)
	}

	// Phase 1: plan. All fallible work happens here; the chunks are now
	// reserved in the catalog and no concurrent batch can claim them.
	plan, err := c.PlanInsert(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d chunks to %d destinations\n", plan.NumChunks(), plan.NumDestinations())

	// Phase 2: execute. Writes fan out one goroutine per destination.
	if _, err := c.ExecutePlan(plan); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d chunks on %d nodes\n", c.NumChunks(), c.NumNodes())

	// A plan that will not be executed must be discarded, or its
	// reservations would keep Validate reporting it as outstanding.
	ch := array.NewChunk(schema, array.ChunkCoord{1, 0})
	ch.AppendCell(array.Coord{4, 0}, []array.CellValue{{Float: 9}})
	stray, err := c.PlanInsert([]*array.Chunk{ch})
	if err != nil {
		log.Fatal(err)
	}
	stray.Discard()

	if err := c.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("catalog and stores agree")
	// Output:
	// planned 4 chunks to 2 destinations
	// stored 4 chunks on 2 nodes
	// catalog and stores agree
}

// ExampleCluster_PlanScaleOut walks the rebalance lifecycle: plan a
// scale-out (provision nodes, revise the placement table, validate and
// group the migration per receiver), inspect the predicted transfer —
// per-receiver batches, wire bytes, Eq 7 duration — and only then commit
// it, shipping each receiver's chunks as one batched codec round-trip.
func ExampleCluster_PlanScaleOut() {
	schema, err := array.NewSchema("Grid",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 15, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes: 2,
		NodeCapacity: 1 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(partition.KindRoundRobin, initial,
				partition.Geometry{Extents: []int64{4, 4}}, partition.Options{})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DefineArray(schema); err != nil {
		log.Fatal(err)
	}
	var batch []*array.Chunk
	for x := int64(0); x < 4; x++ {
		for y := int64(0); y < 4; y++ {
			ch := array.NewChunk(schema, array.ChunkCoord{x, y})
			ch.AppendCell(array.Coord{x * 4, y * 4}, []array.CellValue{{Float: float64(x)}})
			batch = append(batch, ch)
		}
	}
	if _, err := c.Insert(batch); err != nil {
		log.Fatal(err)
	}

	// Phase 1: plan. The new nodes join and the table is revised here;
	// the data movement is validated, grouped per receiver, and priced —
	// but nothing has shipped yet.
	plan, err := c.PlanScaleOut(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d chunks to %d new nodes\n", plan.NumMoves(), len(plan.Added()))
	for _, rb := range plan.Receivers() {
		fmt.Printf("  node %d receives %d chunks (%d bytes) in one batch\n", rb.Node, rb.Chunks, rb.Bytes)
	}
	fmt.Printf("predicted wire volume: %d bytes\n", plan.WireBytes())

	// Phase 2: execute. Receivers ship in parallel, one batched codec
	// round-trip each; the charge equals the prediction.
	reorg, err := c.ExecuteRebalance(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reorg charge matches prediction: %v\n", reorg == plan.PredictedDuration())

	if err := c.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalanced across %d nodes\n", c.NumNodes())
	// Output:
	// plan: 8 chunks to 2 new nodes
	//   node 2 receives 4 chunks (96 bytes) in one batch
	//   node 3 receives 4 chunks (96 bytes) in one batch
	// predicted wire volume: 96 bytes
	// reorg charge matches prediction: true
	// rebalanced across 4 nodes
}

// ExampleCluster_PlanRecover walks the failure lifecycle: replicate at
// R=2, fail a node, inspect the recovery plan — promotions of surviving
// secondaries, re-replication fills, anything unrecoverable — then commit
// it with the same ExecuteRebalance every other plan runs through, and
// finally readmit the repaired node.
func ExampleCluster_PlanRecover() {
	schema, err := array.NewSchema("Grid",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 15, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes:      3,
		NodeCapacity:      1 << 20,
		ReplicationFactor: 2, // every chunk lives on two distinct nodes
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(partition.KindRoundRobin, initial,
				partition.Geometry{Extents: []int64{4, 4}}, partition.Options{})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DefineArray(schema); err != nil {
		log.Fatal(err)
	}
	var batch []*array.Chunk
	for x := int64(0); x < 4; x++ {
		for y := int64(0); y < 4; y++ {
			ch := array.NewChunk(schema, array.ChunkCoord{x, y})
			ch.AppendCell(array.Coord{x * 4, y * 4}, []array.CellValue{{Float: float64(x)}})
			batch = append(batch, ch)
		}
	}
	if _, err := c.Insert(batch); err != nil {
		log.Fatal(err)
	}

	// A node dies. Planning routes around it and queries fail over to the
	// surviving replicas, but redundancy is lost until recovery runs.
	victim := partition.NodeID(1)
	lostPrimaries := len(c.NodeChunks(victim))
	if err := c.FailNode(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d down holding %d primaries; degraded: %v\n", victim, lostPrimaries, c.Degraded())

	// Phase 1: plan. Every chunk the dead node owned is promoted onto a
	// surviving secondary, and every chunk left short of copies gets a
	// re-replication fill — all inspectable before anything ships.
	plan, err := c.PlanRecover(victim)
	if err != nil {
		log.Fatal(err)
	}
	// (Exact recovery counts depend on where the rendezvous hash placed
	// the secondaries, so the example asserts the invariants instead.)
	fmt.Printf("unrecoverable: %d; fills priced: %v\n", len(plan.Unrecoverable()), plan.WireBytes() > 0)

	// Phase 2: execute — atomically, with per-transfer retry.
	if _, err := c.ExecuteRebalance(plan); err != nil {
		log.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("redundancy restored, catalog clean")

	// The repaired node rejoins empty-handed and picks up new placements.
	if _, err := c.RecoverNode(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d healthy again; degraded: %v\n", victim, c.Degraded())
	// Output:
	// node 1 down holding 5 primaries; degraded: true
	// unrecoverable: 0; fills priced: true
	// redundancy restored, catalog clean
	// node 1 healthy again; degraded: false
}
