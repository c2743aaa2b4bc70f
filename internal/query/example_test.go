package query_test

import (
	"fmt"
	"log"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/query"
)

// ExampleSelectRegion runs the Selection operator on the parallel scan
// executor: the cluster's Parallelism knob pins the worker-pool size, and
// the executor guarantees the Result is identical at every level — here
// checked by running the same query serially and with eight workers.
func ExampleSelectRegion() {
	schema, err := array.NewSchema("Grid",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 31, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 31, ChunkInterval: 4},
		})
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes: 4,
		NodeCapacity: 1 << 20,
		Parallelism:  8, // scan-executor worker pool; 0 = GOMAXPROCS
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(partition.KindRoundRobin, initial,
				partition.Geometry{Extents: []int64{8, 8}}, partition.Options{})
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.DefineArray(schema); err != nil {
		log.Fatal(err)
	}
	// Fill the whole 8×8 chunk grid, one cell at each chunk's origin.
	var batch []*array.Chunk
	for x := int64(0); x < 8; x++ {
		for y := int64(0); y < 8; y++ {
			ch := array.NewChunk(schema, array.ChunkCoord{x, y})
			ch.AppendCell(array.Coord{x * 4, y * 4}, []array.CellValue{{Float: 1}})
			batch = append(batch, ch)
		}
	}
	if _, err := c.Insert(batch); err != nil {
		log.Fatal(err)
	}

	// Select the lower-left quadrant: 4×4 chunks, scanned by up to eight
	// workers grouped by owning node.
	region := query.Region{Lo: array.Coord{0, 0}, Hi: array.Coord{15, 15}}
	parallel, err := query.SelectRegion(c, "Grid", region, []string{"v"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matched %d cells across %d nodes\n", parallel.Cells, c.NumNodes())

	c.SetParallelism(1)
	serial, err := query.SelectRegion(c, "Grid", region, []string{"v"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parallel result identical to serial:", parallel == serial)
	// Output:
	// matched 16 cells across 4 nodes
	// parallel result identical to serial: true
}
