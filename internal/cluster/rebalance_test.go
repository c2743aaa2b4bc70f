package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

// migrate plans and executes an externally planned move set in one call.
func migrate(c *Cluster, moves []partition.Move) (Duration, error) {
	plan, err := c.PlanMigrate(moves)
	if err != nil {
		return 0, err
	}
	return c.ExecuteRebalance(plan)
}

// referenceMigrate is the pre-plan serial semantics a rebalance must
// reproduce: apply the moves one at a time to a snapshot of the catalog
// and compute the Eq 7 receiver-parallel charge. The property tests diff
// the real cluster against it.
func referenceMigrate(c *Cluster, moves []partition.Move) (map[array.ChunkKey]partition.NodeID, Duration) {
	owners := make(map[array.ChunkKey]partition.NodeID)
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, ch := range node.Chunks() {
			owners[ch.Key()] = id
		}
	}
	recv := make(map[partition.NodeID]int64)
	var total int64
	for _, m := range moves {
		owners[m.Ref.Packed()] = m.To
		total += m.Size
		recv[m.To] += m.Size
	}
	if total == 0 {
		return owners, 0
	}
	var maxRecv int64
	for _, b := range recv {
		if b > maxRecv {
			maxRecv = b
		}
	}
	wire := total / int64(c.Cost().FabricWidth)
	if maxRecv > wire {
		wire = maxRecv
	}
	return owners, c.Cost().NetTime(wire)
}

// snapshotPayloads encodes every resident chunk so post-rebalance contents
// can be compared byte-for-byte against the pre-rebalance payloads.
func snapshotPayloads(t *testing.T, c *Cluster) map[array.ChunkKey][]byte {
	t.Helper()
	out := make(map[array.ChunkKey][]byte)
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, ch := range node.Chunks() {
			data, err := array.EncodeChunk(ch)
			if err != nil {
				t.Fatal(err)
			}
			out[ch.Key()] = data
		}
	}
	return out
}

// checkAgainstReference verifies the cluster's catalog, node contents and
// accounting match the reference outcome exactly.
func checkAgainstReference(t *testing.T, c *Cluster, owners map[array.ChunkKey]partition.NodeID, payloads map[array.ChunkKey][]byte) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, ch := range node.Chunks() {
			key := ch.Key()
			want, ok := owners[key]
			if !ok {
				t.Fatalf("chunk %s not in reference placement", ch.Ref())
			}
			if want != id {
				t.Errorf("chunk %s on node %d, reference says %d", ch.Ref(), id, want)
			}
			data, err := array.EncodeChunk(ch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, payloads[key]) {
				t.Errorf("chunk %s payload changed in transit", ch.Ref())
			}
			seen++
		}
	}
	if seen != len(owners) {
		t.Errorf("stores hold %d chunks, reference has %d", seen, len(owners))
	}
}

// randomMoves builds a valid move set: a random subset of resident chunks,
// each to a random other node.
func randomMoves(c *Cluster, rng *rand.Rand, fraction float64) []partition.Move {
	nodes := c.Nodes()
	var moves []partition.Move
	for _, id := range nodes {
		node, _ := c.Node(id)
		for _, info := range node.ChunkInfos() {
			if rng.Float64() > fraction {
				continue
			}
			to := nodes[rng.Intn(len(nodes))]
			for to == id {
				to = nodes[rng.Intn(len(nodes))]
			}
			moves = append(moves, partition.Move{Ref: info.Ref, From: id, To: to, Size: info.Size})
		}
	}
	return moves
}

// TestMigrateMatchesSerialReference is the acceptance property: the
// batched, receiver-parallel migration must land exactly the catalog, node
// contents and duration of the serial per-chunk path, across randomized
// move sets.
func TestMigrateMatchesSerialReference(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 271))
		c := newTestCluster(t, 4, consistentFactory)
		if _, err := c.Insert(makeChunks(t, 60, 8, int64(trial)+500)); err != nil {
			t.Fatal(err)
		}
		moves := randomMoves(c, rng, 0.4)
		owners, wantD := referenceMigrate(c, moves)
		payloads := snapshotPayloads(t, c)
		d, err := migrate(c, moves)
		if err != nil {
			t.Fatal(err)
		}
		if d != wantD {
			t.Errorf("trial %d: migration duration %v, serial reference %v", trial, d, wantD)
		}
		checkAgainstReference(t, c, owners, payloads)
	}
}

// TestPlanMigrateInspectThenExecute pins the split lifecycle: the plan's
// predicted receivers, wire bytes and duration must match what execution
// charges, and the placement matches the reference.
func TestPlanMigrateInspectThenExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := newTestCluster(t, 4, consistentFactory)
	if _, err := c.Insert(makeChunks(t, 50, 8, 600)); err != nil {
		t.Fatal(err)
	}
	moves := randomMoves(c, rng, 0.5)
	owners, wantD := referenceMigrate(c, moves)
	payloads := snapshotPayloads(t, c)
	plan, err := c.PlanMigrate(moves)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumMoves() != len(moves) {
		t.Fatalf("plan has %d moves, want %d", plan.NumMoves(), len(moves))
	}
	var perRecv, total int64
	chunks := 0
	for _, rb := range plan.Receivers() {
		perRecv += rb.Bytes
		chunks += rb.Chunks
		if rb.Bytes <= 0 || rb.Chunks <= 0 {
			t.Errorf("degenerate receiver batch %+v", rb)
		}
	}
	for _, m := range moves {
		total += m.Size
	}
	if perRecv != total || plan.Bytes() != total || chunks != len(moves) {
		t.Errorf("receiver batches sum to %d bytes / %d chunks, want %d / %d", perRecv, chunks, total, len(moves))
	}
	if got := plan.PredictedDuration(); got != wantD {
		t.Errorf("PredictedDuration %v, reference %v", got, wantD)
	}
	d, err := c.ExecuteRebalance(plan)
	if err != nil {
		t.Fatal(err)
	}
	if d != wantD {
		t.Errorf("executed duration %v, predicted %v", d, wantD)
	}
	checkAgainstReference(t, c, owners, payloads)
}

// TestScaleOutPlanLifecycle drives PlanScaleOut → inspect → execute and
// checks the wrapper-equivalent outcome.
func TestScaleOutPlanLifecycle(t *testing.T) {
	c := newTestCluster(t, 2, kdFactory)
	if _, err := c.Insert(makeChunks(t, 60, 10, 700)); err != nil {
		t.Fatal(err)
	}
	before := c.TotalBytes()
	plan, err := c.PlanScaleOut(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Added()) != 2 || c.NumNodes() != 4 {
		t.Fatalf("scale-out plan added %v, cluster has %d nodes", plan.Added(), c.NumNodes())
	}
	if plan.NumMoves() == 0 || plan.Bytes() == 0 {
		t.Fatal("k-d tree scale-out should plan migrations")
	}
	// New nodes must be receivers in the plan (incremental scale-out).
	recvs := map[partition.NodeID]bool{}
	for _, rb := range plan.Receivers() {
		recvs[rb.Node] = true
	}
	for _, id := range plan.Added() {
		if !recvs[id] {
			t.Errorf("added node %d receives nothing", id)
		}
	}
	if plan.WireBytes() <= 0 {
		t.Error("predicted wire bytes should be positive")
	}
	want := plan.PredictedDuration()
	d, err := c.ExecuteRebalance(plan)
	if err != nil {
		t.Fatal(err)
	}
	if d != want {
		t.Errorf("executed duration %v, predicted %v", d, want)
	}
	if c.TotalBytes() != before {
		t.Errorf("scale-out must conserve bytes: %d -> %d", before, c.TotalBytes())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestScaleOutWithReplicasPredictionExact: with a replicated array in
// play, the added nodes' predicted receive volume is batch + replica
// bytes keyed by node — a regression guard for the group-index/sort
// interaction — and PredictedDuration must equal the executed charge
// across several topologies.
func TestScaleOutWithReplicasPredictionExact(t *testing.T) {
	// Round robin is the non-incremental scheme: its scale-out ships to
	// preexisting nodes as well as the added ones, so the added nodes'
	// receiver groups land mid-list rather than last.
	rrFactory := func(initial []partition.NodeID) (partition.Partitioner, error) {
		return partition.NewRoundRobin(initial, partition.Geometry{Extents: []int64{16, 16}})
	}
	for _, factory := range []PartitionerFactory{consistentFactory, kdFactory, rrFactory} {
		for _, k := range []int{1, 2, 3} {
			c := newTestCluster(t, 2, factory)
			rs := mustSchema("Rep",
				[]array.Attribute{{Name: "v", Type: array.Int64}},
				[]array.Dimension{{Name: "i", Start: 0, End: 99, ChunkInterval: 100}})
			rep := array.NewChunk(rs, array.ChunkCoord{0})
			for i := int64(0); i < 64; i++ {
				rep.AppendCell(array.Coord{i}, []array.CellValue{{Int: i}})
			}
			if _, err := c.ReplicateArray(rs, []*array.Chunk{rep}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert(makeChunks(t, 50, 10, int64(k)*900)); err != nil {
				t.Fatal(err)
			}
			plan, err := c.PlanScaleOut(k)
			if err != nil {
				t.Fatal(err)
			}
			want := plan.PredictedDuration()
			got, err := c.ExecuteRebalance(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("k=%d: executed %v, predicted %v", k, got, want)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPlanReceiverVolumesKeyedByNode pins buildRebalancePlan's predicted
// receiver volumes against a hand-computed expectation in the adversarial
// shape: an "added" node whose receiver group is first-seen before a
// bigger group that sorts ahead of it, with replicas in play — the case
// where consulting group indexes after the sort would read the wrong
// receiver's bytes.
func TestPlanReceiverVolumesKeyedByNode(t *testing.T) {
	c := newTestCluster(t, 4, consistentFactory)
	rs := mustSchema("Rep",
		[]array.Attribute{{Name: "v", Type: array.Int64}},
		[]array.Dimension{{Name: "i", Start: 0, End: 99, ChunkInterval: 100}})
	rep := array.NewChunk(rs, array.ChunkCoord{0})
	for i := int64(0); i < 32; i++ {
		rep.AppendCell(array.Coord{i}, []array.CellValue{{Int: i}})
	}
	if _, err := c.ReplicateArray(rs, []*array.Chunk{rep}); err != nil {
		t.Fatal(err)
	}
	perNode := rep.SizeBytes()
	chunks := makeChunks(t, 12, 10, 901)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	// First-seen receiver order [3, 1]; sorted order [1, 3]. Node 1 gets
	// the big batch, node 3 gets one chunk and — lacking the replicated
	// array, as an added node would — also pulls the replica.
	c.nodes[3].takeReplica(rep.Key())
	var moves []partition.Move
	pick := func(to partition.NodeID, n int) {
		for _, ch := range chunks {
			if n == 0 {
				return
			}
			from := mustOwner(t, c, ch.Key())
			if from == to {
				continue
			}
			already := false
			for _, m := range moves {
				if m.Ref.Packed() == ch.Key() {
					already = true
					break
				}
			}
			if already {
				continue
			}
			moves = append(moves, partition.Move{Ref: ch.Ref(), From: from, To: to, Size: ch.SizeBytes()})
			n--
		}
	}
	pick(3, 1)
	pick(1, 8)
	c.admin.Lock()
	plan, err := c.buildRebalancePlan(moves, []partition.NodeID{3})
	c.admin.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Discard()
	recv := map[partition.NodeID]int64{}
	for _, rb := range plan.Receivers() {
		recv[rb.Node] = rb.Bytes
	}
	recv[3] += perNode
	var want int64
	for _, b := range recv {
		if b > want {
			want = b
		}
	}
	if plan.repBytes != perNode {
		t.Errorf("repBytes = %d, want %d", plan.repBytes, perNode)
	}
	if plan.maxRecv != want {
		t.Errorf("maxRecv = %d, want %d (receiver volumes must be keyed by node, not group index)", plan.maxRecv, want)
	}
}

// TestRebalancePlanValidation pins the up-front validation errors.
func TestRebalancePlanValidation(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 4, 4, 800)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	ref := chunks[0].Ref()
	from, _ := c.Owner(chunks[0].Key())
	size := chunks[0].SizeBytes()
	other := partition.NodeID(0)
	if from == 0 {
		other = 1
	}
	// A grid slot none of the random chunks landed on.
	usedCC := map[string]bool{}
	for _, ch := range chunks {
		usedCC[ch.Coords.Key()] = true
	}
	var freeCC array.ChunkCoord
	for x := int64(0); x < 16 && freeCC == nil; x++ {
		for y := int64(0); y < 16; y++ {
			if cc := (array.ChunkCoord{x, y}); !usedCC[cc.Key()] {
				freeCC = cc
				break
			}
		}
	}
	cases := []struct {
		name  string
		moves []partition.Move
		want  string
	}{
		{"unknown chunk", []partition.Move{{Ref: array.ChunkRef{Array: "A", Coords: freeCC}, From: 0, To: 1}}, "unknown chunk"},
		{"wrong source", []partition.Move{{Ref: ref, From: other, To: from, Size: size}}, "catalog says"},
		{"unknown target", []partition.Move{{Ref: ref, From: from, To: 99, Size: size}}, "target node 99 unknown"},
		{"moved twice", []partition.Move{
			{Ref: ref, From: from, To: other, Size: size},
			{Ref: ref, From: from, To: other, Size: size},
		}, "moved twice"},
	}
	for _, tc := range cases {
		if _, err := c.PlanMigrate(tc.moves); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Validation failures must not leak pending plans.
	if err := c.Validate(); err != nil {
		t.Errorf("failed plans leaked pending state: %v", err)
	}
}

// TestValidateNamesOutstandingRebalancePlan: a leaked RebalancePlan must
// fail Validate loudly, by name, not as phantom catalog drift.
func TestValidateNamesOutstandingRebalancePlan(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 6, 4, 810)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanMigrate(randomMoves(c, rand.New(rand.NewSource(1)), 1))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Validate()
	if err == nil || !strings.Contains(err.Error(), "rebalance plan(s) outstanding") {
		t.Fatalf("Validate with a held rebalance plan: %v", err)
	}
	plan.Discard()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Discard is terminal: the plan cannot then execute.
	if _, err := c.ExecuteRebalance(plan); err == nil {
		t.Error("executing a discarded plan must fail")
	}
}

// TestRebalanceStalesIngestPlanAndReleasesReservations: committing a
// rebalance must invalidate an outstanding ingest plan, and the rejection
// must release the reservations so the batch can be replanned.
func TestRebalanceStalesIngestPlanAndReleasesReservations(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	resident := makeChunks(t, 20, 8, 820)
	if _, err := c.Insert(resident); err != nil {
		t.Fatal(err)
	}
	batch := makeChunks(t, 10, 8, 821)
	// Chunk grids can collide between seeds; drop duplicates.
	taken := map[array.ChunkKey]bool{}
	for _, ch := range resident {
		taken[ch.Key()] = true
	}
	fresh := batch[:0]
	for _, ch := range batch {
		if !taken[ch.Key()] {
			fresh = append(fresh, ch)
		}
	}
	ingest, err := c.PlanInsert(fresh)
	if err != nil {
		t.Fatal(err)
	}
	moves := randomMoves(c, rand.New(rand.NewSource(2)), 0.5)
	// The rebalance plan must refuse to move the ingest plan's
	// reserved-but-unstored chunks.
	bad := append(append([]partition.Move(nil), moves...), partition.Move{
		Ref: fresh[0].Ref(), From: mustOwner(t, c, fresh[0].Key()), To: 0, Size: fresh[0].SizeBytes(),
	})
	if _, err := c.PlanMigrate(bad); err == nil || !strings.Contains(err.Error(), "reserved by an outstanding ingest plan") {
		t.Fatalf("moving a reserved chunk: %v", err)
	}
	if _, err := migrate(c, moves); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecutePlan(ingest); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("pre-rebalance ingest plan should be stale: %v", err)
	}
	// Reservations released: the same batch replans and executes cleanly.
	if _, err := c.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func mustOwner(t *testing.T, c *Cluster, key array.ChunkKey) partition.NodeID {
	t.Helper()
	id, ok := c.Owner(key)
	if !ok {
		t.Fatalf("chunk %v not catalogued", key)
	}
	return id
}

// TestRebalancePlanStaledByScaleOut: the vice-versa direction — an epoch
// move between rebalance planning and execution rejects the plan and
// releases it.
func TestRebalancePlanStaledByScaleOut(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	if _, err := c.Insert(makeChunks(t, 20, 8, 830)); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanMigrate(randomMoves(c, rand.New(rand.NewSource(3)), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRebalance(plan); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("pre-scale-out rebalance plan should be stale: %v", err)
	}
	// The stale rejection released the plan; the cluster audits clean.
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceRollsBackOnStoreError: a store failure at any receiver must
// leave the cluster exactly as it was — catalog, stores, accounting.
func TestRebalanceRollsBackOnStoreError(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	chunks := makeChunks(t, 30, 8, 840)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	moves := randomMoves(c, rand.New(rand.NewSource(4)), 0.6)
	if len(moves) < 2 {
		t.Fatal("need at least two moves for the fault injection")
	}
	victim := moves[len(moves)/2]
	dst, _ := c.Node(victim.To)
	fs := NewFaultStore(dst.store)
	fs.FailPuts(victim.Ref, -1) // permanent: retries must not mask it
	dst.store = fs
	ownersBefore, _ := referenceMigrate(c, nil) // snapshot of current placement
	payloads := snapshotPayloads(t, c)
	if _, err := migrate(c, moves); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("a migration should surface the injected failure, got %v", err)
	}
	checkAgainstReference(t, c, ownersBefore, payloads)
}

// TestExecuteRebalanceConcurrentWithIngest races ExecuteRebalance against
// Insert traffic on disjoint chunk sets: the admin lock serialises them,
// -race must stay clean, and the final state must audit.
func TestExecuteRebalanceConcurrentWithIngest(t *testing.T) {
	c := newTestCluster(t, 4, consistentFactory)
	resident := makeChunks(t, 40, 8, 850)
	if _, err := c.Insert(resident[:20]); err != nil {
		t.Fatal(err)
	}
	taken := map[array.ChunkKey]bool{}
	for _, ch := range resident[:20] {
		taken[ch.Key()] = true
	}
	var lanes [2][]*array.Chunk
	for i, ch := range resident[20:] {
		if !taken[ch.Key()] {
			lanes[i%2] = append(lanes[i%2], ch)
		}
	}
	plan, err := c.PlanMigrate(randomMoves(c, rand.New(rand.NewSource(5)), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []*array.Chunk) {
			defer wg.Done()
			if _, err := c.Insert(lane); err != nil {
				t.Error(err)
			}
		}(lane)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.ExecuteRebalance(plan); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
