package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/cluster"
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

// sweepLevels are the worker counts the determinism properties are checked
// at: the serial path, a small pool, and an oversubscribed one.
var sweepLevels = []int{1, 2, 8}

// runAt runs fn with the cluster's parallelism knob pinned to par,
// restoring the previous setting afterwards.
func runAt(c *cluster.Cluster, par int, fn func() (Result, error)) (Result, error) {
	prev := c.Parallelism()
	c.SetParallelism(par)
	defer c.SetParallelism(prev)
	return fn()
}

// checkParallelismInvariant pins a query's full Result — Value, Cells,
// Elapsed and both byte counters — byte-identical across the sweep levels.
func checkParallelismInvariant(t *testing.T, c *cluster.Cluster, name string, fn func() (Result, error)) {
	t.Helper()
	base, err := runAt(c, 1, fn)
	if err != nil {
		t.Fatalf("%s at parallelism 1: %v", name, err)
	}
	for _, par := range sweepLevels[1:] {
		got, err := runAt(c, par, fn)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", name, par, err)
		}
		if got != base {
			t.Errorf("%s at parallelism %d = %+v, serial path %+v", name, par, got, base)
		}
	}
}

// TestExecPerNodeTotalsMatchSerial is the executor-level property: random
// per-item charges against random nodes must produce exactly the serial
// per-node Tracker totals (io, cpu and net maps) at every worker count.
func TestExecPerNodeTotalsMatchSerial(t *testing.T) {
	c, _ := buildMODIS(t, "consistent", 2)
	nodes := c.Nodes()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(40)
		type charge struct {
			node partition.NodeID
			io   int64
			cpu  int64
			net  int64
		}
		items := make([]charge, n)
		for i := range items {
			items[i] = charge{
				node: nodes[rng.Intn(len(nodes))],
				io:   rng.Int63n(1 << 20),
				cpu:  rng.Int63n(1 << 10),
				net:  rng.Int63n(1 << 8),
			}
		}
		scan := func(w *Tracker, it charge) (int64, error) {
			w.IO(it.node, it.io)
			w.CPU(it.node, it.cpu)
			w.Net(it.net)
			return it.io + it.cpu, nil
		}
		ref := NewTracker(c)
		refResults, err := Exec(ref, 1, items, scan)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range sweepLevels[1:] {
			tr := NewTracker(c)
			results, err := Exec(tr, par, items, scan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results, refResults) {
				t.Fatalf("trial %d parallelism %d: results diverge from serial", trial, par)
			}
			if !reflect.DeepEqual(tr.io, ref.io) || !reflect.DeepEqual(tr.cpu, ref.cpu) || tr.net != ref.net {
				t.Fatalf("trial %d parallelism %d: tracker totals diverge: io %v vs %v, cpu %v vs %v, net %d vs %d",
					trial, par, tr.io, ref.io, tr.cpu, ref.cpu, tr.net, ref.net)
			}
		}
	}
}

// TestExecErrorDeterministic pins the error contract: the first failing
// item in item order is reported regardless of worker scheduling.
func TestExecErrorDeterministic(t *testing.T) {
	c, _ := buildMODIS(t, "consistent", 2)
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	scan := func(w *Tracker, i int) (int, error) {
		if i == 7 || i == 23 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	}
	for _, par := range sweepLevels {
		_, err := Exec(NewTracker(c), par, items, scan)
		if err == nil || err.Error() != "item 7 failed" {
			t.Errorf("parallelism %d: error = %v, want the first failing item", par, err)
		}
	}
}

// TestSelectRegionParallelismInvariant property-tests the Selection
// operator: randomized regions over both workloads must yield
// byte-identical Results at parallelism 1, 2 and 8.
func TestSelectRegionParallelismInvariant(t *testing.T) {
	c, _ := buildMODIS(t, "kdtree", 3)
	s, _ := c.Schema("Band1")
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 131))
		region := FullRegion(s, 3*1440-1)
		// A random sub-box of the two spatial dimensions.
		for d := 1; d <= 2; d++ {
			ext := s.Dims[d].Extent()
			lo := s.Dims[d].Start + rng.Int63n(ext/2)
			region.Lo[d] = lo
			region.Hi[d] = lo + rng.Int63n(ext/2) + 1
		}
		name := fmt.Sprintf("SelectRegion[trial %d]", trial)
		checkParallelismInvariant(t, c, name, func() (Result, error) {
			return SelectRegion(c, "Band1", region, []string{"radiance"})
		})
	}
}

// TestGroupByAggregateParallelismInvariant property-tests the Statistics
// operator at the three sweep levels, over randomized group scales and
// filters on both suites' specs.
func TestGroupByAggregateParallelismInvariant(t *testing.T) {
	mc, _ := buildMODIS(t, "consistent", 3)
	ms, _ := mc.Schema("Band1")
	ac, _ := buildAIS(t, "hilbert", 3)
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 977))
		north := FullRegion(ms, 3*1440-1)
		north.Lo[2] = rng.Int63n(60)
		spec := GroupBySpec{
			Array:      "Band1",
			Regions:    []Region{north},
			GroupDims:  []int{0},
			GroupScale: []int64{1 + rng.Int63n(2000)},
			Attr:       "radiance",
		}
		checkParallelismInvariant(t, mc, fmt.Sprintf("GroupBy-MODIS[trial %d]", trial), func() (Result, error) {
			return GroupByAggregate(mc, spec)
		})
		aspec := GroupBySpec{
			Array:      "Broadcast",
			GroupDims:  []int{1, 2},
			GroupScale: []int64{1 + rng.Int63n(32), 1 + rng.Int63n(32)},
			FilterAttr: "speed",
			FilterMin:  float64(rng.Intn(3)),
		}
		checkParallelismInvariant(t, ac, fmt.Sprintf("GroupBy-AIS[trial %d]", trial), func() (Result, error) {
			return GroupByAggregate(ac, aspec)
		})
	}
}

// TestWindowAggregateParallelismInvariant pins the windowed mean — the
// float-heaviest reduction, with a halo exchange feeding it — identical
// across the sweep levels for several radii.
func TestWindowAggregateParallelismInvariant(t *testing.T) {
	c, last := buildMODIS(t, "kdtree", 3)
	for _, radius := range []int64{1, 2, 4} {
		name := fmt.Sprintf("WindowAggregate[radius %d]", radius)
		checkParallelismInvariant(t, c, name, func() (Result, error) {
			return WindowAggregate(c, "Band1", "radiance", int64(last), radius)
		})
	}
}

// TestRemainingOperatorsParallelismInvariant sweeps every other ported
// operator once: the whole suite must be scheduling-independent, not just
// the three the acceptance property names.
func TestRemainingOperatorsParallelismInvariant(t *testing.T) {
	mc, mlast := buildMODIS(t, "kdtree", 3)
	ms, _ := mc.Schema("Band1")
	ac, alast := buildAIS(t, "consistent", 3)
	amazon := FullRegion(ms, 3*1440-1)
	amazon.Lo[1], amazon.Hi[1] = -78, -44
	amazon.Lo[2], amazon.Hi[2] = -20, 6
	cases := []struct {
		name string
		c    *cluster.Cluster
		fn   func() (Result, error)
	}{
		{"Quantile", mc, func() (Result, error) { return Quantile(mc, "Band1", "radiance", 0.5, 0.2) }},
		{"DistinctSorted", ac, func() (Result, error) { return DistinctSorted(ac, "Broadcast", "ship_id") }},
		{"JoinBands", mc, func() (Result, error) { return JoinBands(mc, "Band1", "Band2", "radiance", int64(mlast)) }},
		{"JoinReplicated", ac, func() (Result, error) {
			return JoinReplicated(ac, "Broadcast", "ship_id", "Vessel", int64(alast))
		}},
		{"KMeans", mc, func() (Result, error) { return KMeans(mc, "Band1", "radiance", amazon, 4, 3) }},
		{"KNN", ac, func() (Result, error) { return KNN(ac, "Broadcast", int64(alast), 20, 5) }},
		{"CollisionProjection", ac, func() (Result, error) {
			return CollisionProjection(ac, "Broadcast", int64(alast), 15, 1.5)
		}},
	}
	for _, tc := range cases {
		checkParallelismInvariant(t, tc.c, tc.name, tc.fn)
	}
}

// TestKNNParallelismInvariant property-tests the two-pass KNN: with the
// transfer planning hoisted out of the search loop, the parallel
// per-query searches must yield byte-identical Results to the serial
// path across randomized sample sizes and k, on both a clustered and a
// scattered placement (the scattered one maximises remote candidate
// chunks, i.e. the planned transfers).
func TestKNNParallelismInvariant(t *testing.T) {
	clustered, clast := buildAIS(t, "kdtree", 3)
	scattered, slast := buildAIS(t, "consistent", 3)
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 613))
		nQueries := 1 + rng.Intn(60)
		k := 1 + rng.Intn(12)
		checkParallelismInvariant(t, clustered, fmt.Sprintf("KNN-clustered[n=%d k=%d]", nQueries, k), func() (Result, error) {
			return KNN(clustered, "Broadcast", int64(clast), nQueries, k)
		})
		checkParallelismInvariant(t, scattered, fmt.Sprintf("KNN-scattered[n=%d k=%d]", nQueries, k), func() (Result, error) {
			return KNN(scattered, "Broadcast", int64(slast), nQueries, k)
		})
	}
}

// TestSuiteRaceParallel runs both benchmark suites with an oversubscribed
// worker pool — and two suites racing each other on one cluster — so `go
// test -race` exercises the executor, the shared Tracker and the locked
// stores under real concurrent scans.
func TestSuiteRaceParallel(t *testing.T) {
	mc, mlast := buildMODIS(t, "kdtree", 3)
	ac, alast := buildAIS(t, "hilbert", 3)
	mc.SetParallelism(8)
	ac.SetParallelism(8)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MODISSuite(mc, mlast); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := AISSuite(ac, alast); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSuiteRaceAgainstRebalance runs the MODIS suite concurrently with
// ExecuteRebalance rounds bouncing a side array's chunks between nodes:
// the suites and the migration share the catalog shards and the locked
// node stores, so `go test -race` exercises the rebalance pipeline under
// live query traffic. The rebalanced array is disjoint from the queried
// ones, so every concurrent suite run must reproduce the quiescent
// baseline byte-for-byte.
func TestSuiteRaceAgainstRebalance(t *testing.T) {
	c, last := buildMODIS(t, "kdtree", 3)
	c.SetParallelism(8)
	// Ballast: a side array whose chunks the rebalance rounds bounce
	// between nodes while the suite queries Band1/Band2.
	ballast := mustSchema("Ballast",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "time", Start: 0, End: array.Unbounded, ChunkInterval: 1},
			{Name: "x", Start: 0, End: 63, ChunkInterval: 8},
			{Name: "y", Start: 0, End: 63, ChunkInterval: 8},
		})
	if err := c.DefineArray(ballast); err != nil {
		t.Fatal(err)
	}
	var chunks []*array.Chunk
	for x := int64(0); x < 8; x++ {
		for y := int64(0); y < 4; y++ {
			ch := array.NewChunk(ballast, array.ChunkCoord{x % 3, x, y})
			for i := int64(0); i < 16; i++ {
				ch.AppendCell(array.Coord{x % 3, x * 8, y*8 + i%8}, []array.CellValue{{Float: float64(i)}})
			}
			chunks = append(chunks, ch)
		}
	}
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	baseline, err := MODISSuite(c, last)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	ballastMoves := func() []partition.Move {
		var moves []partition.Move
		for _, ch := range chunks {
			from, ok := c.Owner(ch.Key())
			if !ok {
				t.Error("ballast chunk lost")
				return nil
			}
			var to partition.NodeID
			for i, id := range nodes {
				if id == from {
					to = nodes[(i+1)%len(nodes)]
					break
				}
			}
			moves = append(moves, partition.Move{Ref: ch.Ref(), From: from, To: to, Size: ch.SizeBytes()})
		}
		return moves
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := MODISSuite(c, last)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, baseline) {
					t.Error("suite result diverged under concurrent rebalance")
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			plan, err := c.PlanMigrate(ballastMoves())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.ExecuteRebalance(plan); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerConcurrentCharges hammers one shared Tracker from many
// goroutines — the mutex contract behind the "sharded or direct, both
// race-clean" guarantee — and checks the totals.
func TestTrackerConcurrentCharges(t *testing.T) {
	c, _ := buildMODIS(t, "consistent", 2)
	tr := NewTracker(c)
	nodes := c.Nodes()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.IO(nodes[g%len(nodes)], 2)
				tr.CPU(nodes[g%len(nodes)], 3)
				tr.Net(1)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.BytesScanned(); got != goroutines*perG*2 {
		t.Errorf("BytesScanned = %d, want %d", got, goroutines*perG*2)
	}
	if got := tr.netTotal(); got != goroutines*perG {
		t.Errorf("net = %d, want %d", got, goroutines*perG)
	}
	var cpu int64
	for _, id := range nodes {
		cpu += tr.cpu[id]
	}
	if cpu != goroutines*perG*3 {
		t.Errorf("summed per-node CPU = %d, want %d", cpu, goroutines*perG*3)
	}
}
