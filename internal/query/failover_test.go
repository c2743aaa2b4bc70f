package query

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// replicatedCluster builds a nodes-node cluster at the given replication
// factor, defines the 3-D "T" schema and loads a deterministic dense
// batch: every chunk slot of time chunks 0..2, several cells per chunk.
func replicatedCluster(t *testing.T, nodes, replication int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		InitialNodes:      nodes,
		NodeCapacity:      10 << 20,
		ReplicationFactor: replication,
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
	rng := rand.New(rand.NewSource(7))
	var chunks []*array.Chunk
	for tc := int64(0); tc < 3; tc++ {
		for cx := int64(0); cx < 4; cx++ {
			for cy := int64(0); cy < 4; cy++ {
				ch := array.NewChunk(s, array.ChunkCoord{tc, cx, cy})
				for i := 0; i < 6; i++ {
					ch.AppendCell(
						array.Coord{tc*10 + int64(i), cx*4 + int64(i%4), cy*4 + int64((i+1)%4)},
						[]array.CellValue{
							{Float: rng.Float64() * 100},
							{Int: int64(rng.Intn(20))},
							{Int: int64(rng.Intn(360))},
						})
				}
				chunks = append(chunks, ch)
			}
		}
	}
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	return c
}

// failoverVictim picks a non-coordinator node that owns chunks.
func failoverVictim(t *testing.T, c *cluster.Cluster) partition.NodeID {
	t.Helper()
	for _, id := range c.Nodes() {
		if id == c.Coordinator() {
			continue
		}
		if len(c.NodeChunks(id)) > 0 {
			return id
		}
	}
	t.Fatal("no non-coordinator node owns chunks")
	return 0
}

// operatorBattery runs every operator the suites exercise over the "T"
// array and returns the (Cells, Value) pairs in a fixed order.
func operatorBattery(t *testing.T, c *cluster.Cluster) []Result {
	t.Helper()
	s := clusterSchema(c, "T")
	run := func(name string, r Result, err error) Result {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}
	var out []Result
	r, err := SelectRegion(c, "T", FullRegion(s, 0), []string{"v"})
	out = append(out, run("select", r, err))
	r, err = Quantile(c, "T", "v", 0.5, 1.0)
	out = append(out, run("quantile", r, err))
	r, err = DistinctSorted(c, "T", "heading")
	out = append(out, run("distinct", r, err))
	r, err = WindowAggregate(c, "T", "v", 0, 1)
	out = append(out, run("window", r, err))
	r, err = GroupByAggregate(c, GroupBySpec{
		Array: "T", GroupDims: []int{1, 2}, GroupScale: []int64{4, 4}, Attr: "v",
	})
	out = append(out, run("groupby", r, err))
	r, err = KNN(c, "T", 0, 4, 3)
	out = append(out, run("knn", r, err))
	r, err = KMeans(c, "T", "v", FullRegion(s, 0), 3, 4)
	out = append(out, run("kmeans", r, err))
	r, err = CollisionProjection(c, "T", 0, 100, 50)
	out = append(out, run("collision", r, err))
	return out
}

// TestDegradedQueriesMatchHealthyBaseline is the query-layer half of the
// kill-a-node drill: with R=2, failing a node must not perturb a single
// bit of any operator's answer — reads fail over to surviving replicas
// and the canonical-order folds make the float arithmetic identical
// under the changed placement.
func TestDegradedQueriesMatchHealthyBaseline(t *testing.T) {
	c := replicatedCluster(t, 3, 2)
	baseline := operatorBattery(t, c)

	victim := failoverVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if lost := c.UnreachablePrimaries("T"); len(lost) == 0 {
		t.Fatal("victim owned no primaries; drill is vacuous")
	}
	degraded := operatorBattery(t, c)

	names := []string{"select", "quantile", "distinct", "window", "groupby", "knn", "kmeans", "collision"}
	for i, name := range names {
		if degraded[i].Cells != baseline[i].Cells || degraded[i].Value != baseline[i].Value {
			t.Errorf("%s diverged under failover: healthy (%d, %v) vs degraded (%d, %v)",
				name, baseline[i].Cells, baseline[i].Value, degraded[i].Cells, degraded[i].Value)
		}
	}

	// Recovery restores a clean catalog and the same answers again.
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost := plan.Unrecoverable(); len(lost) != 0 {
		t.Fatalf("R=2 recovery reported unrecoverable chunks: %v", lost)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	recovered := operatorBattery(t, c)
	for i, name := range names {
		if recovered[i].Cells != baseline[i].Cells || recovered[i].Value != baseline[i].Value {
			t.Errorf("%s diverged after recovery: healthy (%d, %v) vs recovered (%d, %v)",
				name, baseline[i].Cells, baseline[i].Value, recovered[i].Cells, recovered[i].Value)
		}
	}
}

// TestUnreplicatedFailureReturnsPartialResult drives the R=1 degraded
// path: every operator touching a lost chunk must return a typed
// *ErrPartialResult naming exactly the chunks that have no surviving
// copy — never a silent partial answer.
func TestUnreplicatedFailureReturnsPartialResult(t *testing.T) {
	c := replicatedCluster(t, 3, 1)
	victim := failoverVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	lost := c.UnreachablePrimaries("T")
	if len(lost) == 0 {
		t.Fatal("victim owned no primaries; drill is vacuous")
	}
	want := make([]string, len(lost))
	for i, ref := range lost {
		want[i] = ref.String()
	}
	sort.Strings(want)

	s := clusterSchema(c, "T")
	ops := []struct {
		name string
		run  func() error
	}{
		{"select", func() error { _, err := SelectRegion(c, "T", FullRegion(s, 0), []string{"v"}); return err }},
		{"quantile", func() error { _, err := Quantile(c, "T", "v", 0.5, 1.0); return err }},
		{"groupby", func() error {
			_, err := GroupByAggregate(c, GroupBySpec{Array: "T", GroupDims: []int{1, 2}, GroupScale: []int64{4, 4}, Attr: "v"})
			return err
		}},
		{"kmeans", func() error { _, err := KMeans(c, "T", "v", FullRegion(s, 0), 3, 4); return err }},
	}
	for _, op := range ops {
		err := op.run()
		var pr *ErrPartialResult
		if !errors.As(err, &pr) {
			t.Fatalf("%s on a degraded R=1 cluster returned %v, want *ErrPartialResult", op.name, err)
		}
		if pr.Array != "T" {
			t.Errorf("%s: partial result names array %q, want T", op.name, pr.Array)
		}
		got := make([]string, len(pr.Lost))
		for i, ref := range pr.Lost {
			got[i] = ref.String()
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: lost-chunk report %v, want exactly %v", op.name, got, want)
		}
	}

	// Healing the node brings the answers back without any recovery plan:
	// the chunks were never deleted, only unreachable.
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := SelectRegion(c, "T", FullRegion(s, 0), []string{"v"}); err != nil {
		t.Fatalf("recovered cluster still failing queries: %v", err)
	}
}
