package advisor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/query"
)

// mustSchema is array.NewSchema for fixed test literals.
func mustSchema(name string, attrs []array.Attribute, dims []array.Dimension) *array.Schema {
	s, err := array.NewSchema(name, attrs, dims)
	if err != nil {
		panic(err)
	}
	return s
}

// liveFixtureSchema builds one of the two congruent 3-D arrays the
// randomized tests ingest into (time × x × y, 10×10 spatial chunk grid
// per slab).
func liveFixtureSchema(name string) *array.Schema {
	return mustSchema(name,
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "time", Start: 0, End: array.Unbounded, ChunkInterval: 1},
			{Name: "x", Start: 0, End: 39, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 39, ChunkInterval: 4},
		})
}

// liveFixture is the randomized-test harness: a consistent-hash cluster
// over two congruent arrays plus a fresh-chunk generator.
type liveFixture struct {
	c       *cluster.Cluster
	schemas []*array.Schema
	names   []string
	rng     *rand.Rand
	used    map[array.ChunkKey]bool
	// trange bounds the random time coordinate: small for the randomized
	// tests (dense adjacency), large for benchmarks (fresh slots for any
	// b.N).
	trange int64
}

func newLiveFixture(t *testing.T, nodes int, seed int64) *liveFixture {
	return newLiveFixtureTB(t, nodes, seed)
}

func newLiveFixtureTB(t testing.TB, nodes int, seed int64) *liveFixture {
	t.Helper()
	sa := liveFixtureSchema("LiveA")
	sb := liveFixtureSchema("LiveB")
	c, err := cluster.New(cluster.Config{
		InitialNodes: nodes,
		NodeCapacity: 1 << 30,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 32), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*array.Schema{sa, sb} {
		if err := c.DefineArray(s); err != nil {
			t.Fatal(err)
		}
	}
	return &liveFixture{
		c:       c,
		schemas: []*array.Schema{sa, sb},
		names:   []string{"LiveA", "LiveB"},
		rng:     rand.New(rand.NewSource(seed)),
		used:    make(map[array.ChunkKey]bool),
		trange:  3,
	}
}

// freshChunks builds n chunks at previously unused grid slots, spread over
// a small coordinate range so spatial and join edges are plentiful.
func (f *liveFixture) freshChunks(n int) []*array.Chunk {
	out := make([]*array.Chunk, 0, n)
	for len(out) < n {
		s := f.schemas[f.rng.Intn(len(f.schemas))]
		cc := array.ChunkCoord{f.rng.Int63n(f.trange), f.rng.Int63n(6), f.rng.Int63n(6)}
		key := array.MakeChunkKey(s.ID(), cc.Packed())
		if f.used[key] {
			continue
		}
		f.used[key] = true
		cells := 4 + f.rng.Intn(12)
		ch := array.NewChunkCap(s, cc, cells)
		origin := s.ChunkOrigin(cc)
		for k := 0; k < cells; k++ {
			cell := array.Coord{origin[0], origin[1] + int64(k%4), origin[2] + int64((k/4)%4)}
			ch.AppendCell(cell, []array.CellValue{{Float: f.rng.Float64()}})
		}
		out = append(out, ch)
	}
	return out
}

// storedMoves picks up to n random distinct stored chunks and assigns each
// a random other node — always a valid PlanMigrate input.
func (f *liveFixture) storedMoves(n int) []partition.Move {
	nodes := f.c.Nodes()
	if len(nodes) < 2 {
		return nil
	}
	var infos []partition.Move
	for _, id := range nodes {
		node, _ := f.c.Node(id)
		for _, info := range node.ChunkInfos() {
			infos = append(infos, partition.Move{Ref: info.Ref, From: id, Size: info.Size})
		}
	}
	f.rng.Shuffle(len(infos), func(i, j int) { infos[i], infos[j] = infos[j], infos[i] })
	if len(infos) > n {
		infos = infos[:n]
	}
	for i := range infos {
		to := nodes[f.rng.Intn(len(nodes))]
		for to == infos[i].From {
			to = nodes[f.rng.Intn(len(nodes))]
		}
		infos[i].To = to
	}
	return infos
}

// sortedEdges returns the edge set in a canonical order for comparison.
func sortedEdges(g *Graph) []Edge {
	out := append([]Edge(nil), g.Edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A.Less(out[j].A)
		}
		if out[i].B != out[j].B {
			return out[i].B.Less(out[j].B)
		}
		return out[i].Weight < out[j].Weight
	})
	return out
}

// requireGraphsEqual pins the live graph byte-identical to a fresh
// rebuild: same edge set, same sizes, same owners, same adjacency domain,
// same remote-traffic sum.
func requireGraphsEqual(t *testing.T, live, rebuilt *Graph, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(live.size, rebuilt.size) {
		t.Fatalf("%s: size maps diverge: live %d entries, rebuilt %d", ctx, len(live.size), len(rebuilt.size))
	}
	if !reflect.DeepEqual(live.owner, rebuilt.owner) {
		for k, v := range rebuilt.owner {
			if live.owner[k] != v {
				t.Fatalf("%s: owner of %s: live %d, rebuilt %d", ctx, k, live.owner[k], v)
			}
		}
		t.Fatalf("%s: owner maps diverge (%d vs %d entries)", ctx, len(live.owner), len(rebuilt.owner))
	}
	le, re := sortedEdges(live), sortedEdges(rebuilt)
	if !reflect.DeepEqual(le, re) {
		t.Fatalf("%s: edge sets diverge: live %d edges, rebuilt %d", ctx, len(le), len(re))
	}
	if len(live.adj) != len(rebuilt.adj) {
		t.Fatalf("%s: adjacency domains diverge: live %d chunks, rebuilt %d (stale empty entries?)",
			ctx, len(live.adj), len(rebuilt.adj))
	}
	if lb, rb := live.RemoteBytes(), rebuilt.RemoteBytes(); lb != rb {
		t.Fatalf("%s: RemoteBytes diverge: live %d, rebuilt %d", ctx, lb, rb)
	}
}

// checkLiveMatchesRebuild compares the live graph against a from-scratch
// BuildGraph and pins the generation to the cluster's.
func checkLiveMatchesRebuild(t *testing.T, f *liveFixture, live *Live, ctx string) {
	t.Helper()
	rebuilt, err := BuildGraph(f.c, f.names)
	if err != nil {
		t.Fatal(err)
	}
	live.mu.Lock()
	g, gen, valid := live.g, live.gen, live.valid
	live.mu.Unlock()
	if !valid {
		t.Fatalf("%s: live graph invalidated (unexpected divergence)", ctx)
	}
	if cg := f.c.PlacementGen(); gen != cg {
		t.Fatalf("%s: live graph at generation %d, cluster at %d", ctx, gen, cg)
	}
	requireGraphsEqual(t, g, rebuilt, ctx)
}

// TestLiveGraphMatchesRebuildRandomized is the equivalence property test:
// after arbitrary interleavings of PlanInsert/ExecutePlan,
// PlanMigrate/ExecuteRebalance, PlanScaleOut, discards and
// staleness-induced releases, the incrementally patched graph equals a
// fresh BuildGraph — edges, owners, sizes and RemoteBytes — without ever
// falling back to a rebuild after warm-up.
func TestLiveGraphMatchesRebuildRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newLiveFixture(t, 3, seed)
			live, err := NewLive(f.c, f.names)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Refresh(); err != nil {
				t.Fatal(err)
			}
			// Seed content so migrations have something to shuffle.
			if _, err := f.c.Insert(f.freshChunks(14)); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40; step++ {
				op := f.rng.Intn(8)
				ctx := fmt.Sprintf("step %d op %d", step, op)
				switch op {
				case 0, 1: // committed ingest
					plan, err := f.c.PlanInsert(f.freshChunks(1 + f.rng.Intn(6)))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.c.ExecutePlan(plan); err != nil {
						t.Fatal(err)
					}
				case 2: // discarded ingest
					plan, err := f.c.PlanInsert(f.freshChunks(1 + f.rng.Intn(4)))
					if err != nil {
						t.Fatal(err)
					}
					plan.Discard()
				case 3: // committed migration
					moves := f.storedMoves(1 + f.rng.Intn(6))
					plan, err := f.c.PlanMigrate(moves)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.c.ExecuteRebalance(plan); err != nil {
						t.Fatal(err)
					}
				case 4: // discarded migration
					plan, err := f.c.PlanMigrate(f.storedMoves(3))
					if err != nil {
						t.Fatal(err)
					}
					plan.Discard()
				case 5: // scale-out, executed or discarded
					if f.c.NumNodes() >= 7 {
						continue
					}
					plan, err := f.c.PlanScaleOut(1)
					if err != nil {
						t.Fatal(err)
					}
					if f.rng.Intn(2) == 0 {
						if _, err := f.c.ExecuteRebalance(plan); err != nil {
							t.Fatal(err)
						}
					} else {
						plan.Discard()
					}
				case 6: // ingest plan staled by a committed migration
					ingest, err := f.c.PlanInsert(f.freshChunks(2))
					if err != nil {
						t.Fatal(err)
					}
					moves := f.storedMoves(2)
					mplan, err := f.c.PlanMigrate(moves)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.c.ExecuteRebalance(mplan); err != nil {
						t.Fatal(err)
					}
					if len(moves) > 0 {
						if _, err := f.c.ExecutePlan(ingest); err == nil || !strings.Contains(err.Error(), "stale") {
							t.Fatalf("%s: staled ingest plan should be rejected, got %v", ctx, err)
						}
					} else if _, err := f.c.ExecutePlan(ingest); err != nil {
						t.Fatal(err)
					}
				case 7: // rebalance plan staled by another rebalance
					m1, err := f.c.PlanMigrate(f.storedMoves(2))
					if err != nil {
						t.Fatal(err)
					}
					m2moves := f.storedMoves(2)
					m2, err := f.c.PlanMigrate(m2moves)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.c.ExecuteRebalance(m2); err != nil {
						t.Fatal(err)
					}
					if len(m2moves) > 0 {
						if _, err := f.c.ExecuteRebalance(m1); err == nil || !strings.Contains(err.Error(), "stale") {
							t.Fatalf("%s: staled rebalance plan should be rejected, got %v", ctx, err)
						}
					} else {
						m1.Discard()
					}
				}
				checkLiveMatchesRebuild(t, f, live, ctx)
			}
			if err := f.c.Validate(); err != nil {
				t.Fatal(err)
			}
			if n := live.Rebuilds(); n != 1 {
				t.Fatalf("live graph fell back to rebuild %d times; the warm-up build should be the only one", n)
			}
			// The continuous advisor's recommendation equals the
			// rebuild-per-call advisor's, prediction for prediction.
			cold, err := Advise(f.c, f.names, 1000, 1.3)
			if err != nil {
				t.Fatal(err)
			}
			cold.Plan.Discard()
			warm, err := live.Advise(1000, 1.3)
			if err != nil {
				t.Fatal(err)
			}
			warm.Plan.Discard()
			if !reflect.DeepEqual(cold.Moves, warm.Moves) {
				t.Fatalf("advice diverges: cold %d moves, live %d", len(cold.Moves), len(warm.Moves))
			}
			if cold.RemoteBytesBefore != warm.RemoteBytesBefore || cold.RemoteBytesAfter != warm.RemoteBytesAfter {
				t.Fatalf("predictions diverge: cold %d→%d, live %d→%d",
					cold.RemoteBytesBefore, cold.RemoteBytesAfter, warm.RemoteBytesBefore, warm.RemoteBytesAfter)
			}
			if err := f.c.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLiveRemoveChunkExcision covers the PlacementRemove path directly
// (the insert-only cluster never emits it yet): removing a chunk excises
// exactly its incident edges and the graph matches a rebuild of the
// remaining placement.
func TestLiveRemoveChunkExcision(t *testing.T) {
	f := newLiveFixture(t, 3, 42)
	if _, err := f.c.Insert(f.freshChunks(20)); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(f.c, f.names)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]array.ChunkKey, 0, len(g.size))
	for k := range g.size {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	rng := rand.New(rand.NewSource(7))
	for len(keys) > 0 {
		i := rng.Intn(len(keys))
		victim := keys[i]
		keys = append(keys[:i], keys[i+1:]...)
		g.removeChunk(victim)
		// Reference: rebuild from the surviving chunk set by replaying
		// addChunk (schema lookup via the fixture's registry).
		ref := newGraph()
		for _, k := range keys {
			s, _ := f.c.Schema(k.ArrayName())
			ref.addChunk(s, k, g.size[k], g.owner[k])
		}
		requireGraphsEqual(t, g, ref, fmt.Sprintf("after removing %s", victim))
	}
	if len(g.Edges) != 0 || len(g.adj) != 0 || len(g.byCoord) != 0 {
		t.Fatalf("fully excised graph retains state: %d edges, %d adj, %d coords",
			len(g.Edges), len(g.adj), len(g.byCoord))
	}
}

// TestLiveAdviseRaceAgainstSuitesAndRebalance runs the continuous advisor
// concurrently with the MODIS benchmark suite and a series of committed
// migrations. The migrations bounce a ballast array that the advisor
// covers but the suite does not query (chunks mid-flight are unreadable,
// so moved and queried sets must be disjoint — the TestSuiteRace
// precedent): the feed patches the live graph mid-advice while the suite
// must keep reproducing its quiescent baseline byte-for-byte. Under
// -race this is the advisor's memory-safety proof; afterwards the
// converged live graph is pinned against a fresh rebuild.
func TestLiveAdviseRaceAgainstSuitesAndRebalance(t *testing.T) {
	c := buildScattered(t)
	const lastCycle = 2
	// Ballast: a third congruent array the rebalance rounds bounce between
	// nodes. It joins the advised set — its moves patch the live graph —
	// while the suite queries only Band1/Band2.
	ballast := mustSchema("AdvBallast",
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
	advised := []string{"Band1", "Band2", "AdvBallast"}
	live, err := NewLive(c, advised)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	baseline, err := query.MODISSuite(c, lastCycle)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-plan the ballast shuttle rounds serially (gathering placement
	// must not race the executions).
	rng := rand.New(rand.NewSource(11))
	nodes := c.Nodes()
	owners := make(map[array.ChunkKey]partition.NodeID, len(chunks))
	for _, ch := range chunks {
		from, ok := c.Owner(ch.Key())
		if !ok {
			t.Fatal("ballast chunk lost")
		}
		owners[ch.Key()] = from
	}
	var rounds [][]partition.Move
	for r := 0; r < 4; r++ {
		var moves []partition.Move
		for _, ch := range chunks {
			if rng.Intn(3) == 0 {
				continue
			}
			key := ch.Key()
			from := owners[key]
			to := nodes[rng.Intn(len(nodes))]
			for to == from {
				to = nodes[rng.Intn(len(nodes))]
			}
			moves = append(moves, partition.Move{Ref: ch.Ref(), From: from, To: to, Size: ch.SizeBytes()})
			owners[key] = to
		}
		rounds = append(rounds, moves)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // the workload: the suite must reproduce its baseline
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := query.MODISSuite(c, lastCycle)
				if err != nil {
					t.Errorf("suite: %v", err)
					return
				}
				if !reflect.DeepEqual(got, baseline) {
					t.Error("suite result diverged under concurrent advise/rebalance")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // the rebalancer: commit each pre-planned shuttle
		defer wg.Done()
		for _, moves := range rounds {
			plan, err := c.PlanMigrate(moves)
			if err != nil {
				t.Errorf("plan migrate: %v", err)
				return
			}
			if _, err := c.ExecuteRebalance(plan); err != nil {
				t.Errorf("execute rebalance: %v", err)
				return
			}
		}
	}()
	for k := 0; k < 2; k++ { // the advisers: continuous what-ifs
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				adv, err := live.Advise(1<<20, 1.4)
				if err != nil {
					// A migration committing between planning and
					// validation surfaces as a catalog mismatch — the
					// documented retry case, not a failure.
					continue
				}
				adv.Plan.Discard()
			}
		}()
	}
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Converged: the live graph equals a fresh rebuild, without having
	// paid more than the warm-up build.
	if n := live.Rebuilds(); n != 1 {
		t.Fatalf("live graph rebuilt %d times under concurrency; want the warm-up build only", n)
	}
	rebuilt, err := BuildGraph(c, advised)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	live.mu.Lock()
	g := live.g
	live.mu.Unlock()
	requireGraphsEqual(t, g, rebuilt, "after concurrent advise/suites/rebalance")
}
