package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

// mustSchema is array.NewSchema for fixed test literals.
func mustSchema(name string, attrs []array.Attribute, dims []array.Dimension) *array.Schema {
	s, err := array.NewSchema(name, attrs, dims)
	if err != nil {
		panic(err)
	}
	return s
}

func testSchema() *array.Schema {
	return mustSchema("A",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 63, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 63, ChunkInterval: 4},
		})
}

func consistentFactory(initial []partition.NodeID) (partition.Partitioner, error) {
	return partition.NewConsistentHash(initial, 64), nil
}

func kdFactory(initial []partition.NodeID) (partition.Partitioner, error) {
	return partition.NewKdTree(initial, partition.Geometry{Extents: []int64{16, 16}}, false)
}

func newTestCluster(t testing.TB, nodes int, factory PartitionerFactory) *Cluster {
	t.Helper()
	c, err := New(Config{
		InitialNodes: nodes,
		NodeCapacity: 10 << 20,
		Partitioner:  factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

// makeChunks builds n chunks with `cells` occupied cells each, scattered
// over distinct grid slots.
func makeChunks(t testing.TB, n, cells int, seed int64) []*array.Chunk {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	var out []*array.Chunk
	for len(out) < n {
		cc := array.ChunkCoord{rng.Int63n(16), rng.Int63n(16)}
		if used[cc.Key()] {
			continue
		}
		used[cc.Key()] = true
		ch := array.NewChunk(s, cc)
		origin := s.ChunkOrigin(cc)
		for k := 0; k < cells; k++ {
			cell := array.Coord{origin[0] + int64(k%4), origin[1] + int64((k/4)%4)}
			ch.AppendCell(cell, []array.CellValue{{Float: rng.Float64()}})
		}
		out = append(out, ch)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InitialNodes: 0, NodeCapacity: 1, Partitioner: consistentFactory}); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := New(Config{InitialNodes: 2, NodeCapacity: 0, Partitioner: consistentFactory}); err == nil {
		t.Error("0 capacity should fail")
	}
	if _, err := New(Config{InitialNodes: 2, NodeCapacity: 1}); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := New(Config{InitialNodes: 2, NodeCapacity: 1, Partitioner: consistentFactory,
		Cost: CostModel{DeltaSecPerByte: -1, TSecPerByte: 1, CPUSecPerCell: 1}}); err == nil {
		t.Error("bad cost model should fail")
	}
}

func TestInsertStoresAndAccounts(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 20, 8, 1)
	var want int64
	for _, ch := range chunks {
		want += ch.SizeBytes()
	}
	d, err := c.Insert(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("insert must take simulated time")
	}
	if got := c.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	if c.NumChunks() != 20 {
		t.Errorf("NumChunks = %d, want 20", c.NumChunks())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsDuplicatesAndUndefined(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 1, 4, 2)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(chunks); err == nil {
		t.Error("duplicate insert must fail (no-overwrite)")
	}
	other := mustSchema("Zed",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 2}})
	orphan := array.NewChunk(other, array.ChunkCoord{0})
	if _, err := c.Insert([]*array.Chunk{orphan}); err == nil {
		t.Error("insert into undefined array must fail")
	}
}

func TestInsertCostLocalVsRemote(t *testing.T) {
	// With one node everything is a local disk write; with two, part of
	// the batch crosses the (slower) network, so per-byte cost rises.
	single := newTestCluster(t, 1, consistentFactory)
	chunks := makeChunks(t, 30, 16, 3)
	dSingle, err := single.Insert(chunks)
	if err != nil {
		t.Fatal(err)
	}
	double := newTestCluster(t, 2, consistentFactory)
	dDouble, err := double.Insert(makeChunks(t, 30, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if dDouble <= dSingle {
		t.Errorf("remote inserts should cost more: 1 node %v, 2 nodes %v", dSingle, dDouble)
	}
}

func TestScaleOutMigratesAndValidates(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	if _, err := c.Insert(makeChunks(t, 60, 10, 4)); err != nil {
		t.Fatal(err)
	}
	before := c.TotalBytes()
	res, err := c.ScaleOut(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", c.NumNodes())
	}
	if res.Moves == 0 || res.MovedBytes == 0 || res.Reorg <= 0 {
		t.Errorf("scale-out should have moved data: %+v", res)
	}
	if c.TotalBytes() != before {
		t.Errorf("scale-out must conserve bytes: %d -> %d", before, c.TotalBytes())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// New nodes actually hold data.
	var newBytes int64
	for _, id := range res.Added {
		newBytes += c.NodeLoad(id)
	}
	if newBytes == 0 {
		t.Error("new nodes hold nothing after reorganization")
	}
}

func TestScaleOutRejectsBadK(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	if _, err := c.ScaleOut(0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestScaleOutKdTreeIncremental(t *testing.T) {
	c := newTestCluster(t, 2, kdFactory)
	if _, err := c.Insert(makeChunks(t, 80, 12, 5)); err != nil {
		t.Fatal(err)
	}
	loadsBefore := map[partition.NodeID]int64{}
	for _, id := range c.Nodes() {
		loadsBefore[id] = c.NodeLoad(id)
	}
	res, err := c.ScaleOut(1)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental property at the cluster level: preexisting nodes only
	// lose bytes, never gain.
	for id, before := range loadsBefore {
		if c.NodeLoad(id) > before {
			t.Errorf("preexisting node %d grew during incremental scale-out", id)
		}
	}
	if c.NodeLoad(res.Added[0]) == 0 {
		t.Error("new node should have received the split half")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateArray(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	vs := mustSchema("Vessel",
		[]array.Attribute{{Name: "typ", Type: array.Int32}},
		[]array.Dimension{{Name: "vessel_id", Start: 0, End: 999, ChunkInterval: 1000}})
	ch := array.NewChunk(vs, array.ChunkCoord{0})
	for i := int64(0); i < 100; i++ {
		ch.AppendCell(array.Coord{i}, []array.CellValue{{Int: i % 7}})
	}
	d, err := c.ReplicateArray(vs, []*array.Chunk{ch})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("replication should take network time")
	}
	for _, id := range c.Nodes() {
		n, _ := c.Node(id)
		if len(n.Replicas()) != 1 {
			t.Errorf("node %d has %d replicas, want 1", id, len(n.Replicas()))
		}
	}
	// Replicas follow the cluster to new nodes.
	if _, err := c.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	last := c.Nodes()[c.NumNodes()-1]
	n, _ := c.Node(last)
	if len(n.Replicas()) != 1 {
		t.Error("new node missing replica after scale-out")
	}
	// Replicated bytes are excluded from partitioned accounting.
	if c.TotalBytes() != 0 {
		t.Error("replicas must not count as partitioned storage")
	}
}

func TestRSDAndLoads(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	if c.RSD() != 0 {
		t.Error("empty cluster RSD should be 0")
	}
	if _, err := c.Insert(makeChunks(t, 40, 10, 6)); err != nil {
		t.Fatal(err)
	}
	loads := c.Loads()
	if len(loads) != 2 {
		t.Fatalf("Loads len = %d", len(loads))
	}
	if loads[0]+loads[1] != float64(c.TotalBytes()) {
		t.Error("loads must sum to total")
	}
}

func TestCoordinatorIsLowestID(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	if c.Coordinator() != 0 {
		t.Errorf("coordinator = %d, want 0", c.Coordinator())
	}
}

func TestDefineArrayDuplicate(t *testing.T) {
	c := newTestCluster(t, 1, consistentFactory)
	if err := c.DefineArray(testSchema()); err == nil {
		t.Error("duplicate DefineArray should fail")
	}
	if _, ok := c.Schema("A"); !ok {
		t.Error("schema A should be registered")
	}
}

func TestGrowthSequenceMatchesPaperSetup(t *testing.T) {
	// The Section 6.2 configuration: start with 2 nodes, add 2 at a
	// time, end with 8, inserting between expansions.
	c := newTestCluster(t, 2, kdFactory)
	all := makeChunks(t, 120, 10, 100)
	for step := 0; step < 3; step++ {
		if _, err := c.Insert(all[step*40 : (step+1)*40]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScaleOut(2); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("after step %d: %v", step, err)
		}
	}
	if c.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", c.NumNodes())
	}
	if c.NumChunks() != 120 {
		t.Fatalf("NumChunks = %d, want 120", c.NumChunks())
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := DefaultCostModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.DiskTime(100<<20) <= 0 || m.NetTime(1<<20) <= 0 || m.CPUTime(1000) <= 0 {
		t.Error("cost helpers must be positive for positive input")
	}
	if m.NetTime(1<<20) <= m.DiskTime(1<<20) {
		t.Error("network must cost more than disk (t > δ)")
	}
	d := Duration(90)
	if d.Minutes() != 1.5 || d.Seconds() != 90 {
		t.Error("duration conversions wrong")
	}
}
