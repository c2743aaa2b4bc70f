package query

import (
	"testing"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// tinyCluster is a 2-node cluster with a 3-D array and no data, for error
// paths.
func tinyCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		InitialNodes: 2,
		NodeCapacity: 1 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 16), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSchema("T",
		[]array.Attribute{{Name: "v", Type: array.Float64}, {Name: "speed", Type: array.Int32}, {Name: "heading", Type: array.Int32}},
		[]array.Dimension{
			{Name: "time", Start: 0, End: array.Unbounded, ChunkInterval: 10},
			{Name: "x", Start: 0, End: 15, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 15, ChunkInterval: 4},
		})
	if err := c.DefineArray(s); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOperatorsOnEmptySlabs(t *testing.T) {
	c := tinyCluster(t)
	if _, err := KNN(c, "T", 0, 5, 3); err == nil {
		t.Error("KNN over an empty slab must fail")
	}
	if _, err := Quantile(c, "T", "v", 0.5, 0.5); err == nil {
		t.Error("quantile over an empty array must fail")
	}
	// Window and collision over empty slabs are well-defined: zero
	// outputs.
	res, err := WindowAggregate(c, "T", "v", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 0 {
		t.Errorf("empty window produced %d outputs", res.Cells)
	}
	res, err = CollisionProjection(c, "T", 0, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 0 {
		t.Errorf("empty collision scan found %d pairs", res.Cells)
	}
}

func TestOperatorArgumentValidation(t *testing.T) {
	c := tinyCluster(t)
	if _, err := WindowAggregate(c, "T", "v", 0, 0); err == nil {
		t.Error("zero window radius must fail")
	}
	if _, err := KNN(c, "T", 0, 0, 3); err == nil {
		t.Error("zero queries must fail")
	}
	if _, err := KMeans(c, "T", "v", FullRegion(clusterSchema(c, "T"), 99), 1, 0); err == nil {
		t.Error("zero iterations must fail")
	}
	if _, err := JoinReplicated(c, "T", "v", "NoDim", 0); err == nil {
		t.Error("missing replica array must fail")
	}
	// 1-D arrays are rejected by the spatial operators.
	one := mustSchema("One",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 2}})
	if err := c.DefineArray(one); err != nil {
		t.Fatal(err)
	}
	if _, err := WindowAggregate(c, "One", "v", 0, 1); err == nil {
		t.Error("1-D window must fail")
	}
	if _, err := KNN(c, "One", 0, 5, 3); err == nil {
		t.Error("1-D KNN must fail")
	}
}

func TestKNNKLargerThanPopulation(t *testing.T) {
	c := tinyCluster(t)
	s := clusterSchema(c, "T")
	ch := array.NewChunk(s, array.ChunkCoord{0, 0, 0})
	for i := int64(0); i < 3; i++ {
		ch.AppendCell(array.Coord{i, i, i}, []array.CellValue{{Float: 1}, {Int: 2}, {Int: 90}})
	}
	if _, err := c.Insert([]*array.Chunk{ch}); err != nil {
		t.Fatal(err)
	}
	// k = 50 with 3 cells: clamps rather than fails.
	res, err := KNN(c, "T", 0, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 3 {
		t.Errorf("query count should clamp to the population, got %d", res.Cells)
	}
}

func clusterSchema(c *cluster.Cluster, name string) *array.Schema {
	s, ok := c.Schema(name)
	if !ok {
		panic("schema " + name + " missing")
	}
	return s
}
