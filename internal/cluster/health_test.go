package cluster

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
)

// newReplicatedCluster builds a cluster at the given replication factor
// with the test schema defined.
func newReplicatedCluster(t testing.TB, nodes, replication int) *Cluster {
	t.Helper()
	c, err := New(Config{
		InitialNodes:      nodes,
		NodeCapacity:      10 << 20,
		Partitioner:       consistentFactory,
		ReplicationFactor: replication,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

// pickVictim returns a non-coordinator node owning at least one chunk.
func pickVictim(t *testing.T, c *Cluster) partition.NodeID {
	t.Helper()
	for _, id := range c.Nodes() {
		if id == c.Coordinator() {
			continue
		}
		node, _ := c.Node(id)
		if node.NumChunks() > 0 {
			return id
		}
	}
	t.Fatal("no non-coordinator node owns chunks")
	return 0
}

func TestFailNodeValidation(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	if err := c.FailNode(99); err == nil {
		t.Error("failing an unknown node must error")
	}
	if err := c.FailNode(c.Coordinator()); err == nil {
		t.Error("failing the coordinator must error")
	}
	if _, err := c.RecoverNode(1); err == nil {
		t.Error("recovering a healthy node must error")
	}
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(1); err == nil {
		t.Error("double-failing a node must error")
	}
	if !c.Degraded() {
		t.Error("cluster with a down node must report Degraded")
	}
	if h, ok := c.NodeHealthOf(1); !ok || h != NodeDown {
		t.Errorf("NodeHealthOf(1) = %v, %v; want NodeDown", h, ok)
	}
	if got := c.HealthyNodes(); len(got) != 2 {
		t.Errorf("HealthyNodes = %v, want 2 nodes", got)
	}
	if _, err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Error("cluster must be healthy after RecoverNode")
	}
}

func TestReplicatedIngestPlacesSecondaries(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	chunks := makeChunks(t, 24, 8, 7)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		owner, ok := c.Owner(ch.Key())
		if !ok {
			t.Fatalf("chunk %s not catalogued", ch.Ref())
		}
		reps := c.ReplicaHolders(ch.Key())
		if len(reps) != 1 {
			t.Fatalf("chunk %s has %d secondaries, want 1", ch.Ref(), len(reps))
		}
		if reps[0] == owner {
			t.Fatalf("chunk %s secondary collocated with its primary on node %d", ch.Ref(), owner)
		}
		holder, _ := c.Node(reps[0])
		rep, ok := holder.Replica(ch.Ref())
		if !ok {
			t.Fatalf("node %d misses its secondary of %s", reps[0], ch.Ref())
		}
		if rep.SizeBytes() != ch.SizeBytes() {
			t.Fatalf("secondary of %s is %d bytes, want %d", ch.Ref(), rep.SizeBytes(), ch.SizeBytes())
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKillNodeDrill is the headline recovery scenario: ingest at R=2, kill
// a node, recover every lost primary from surviving replicas, validate
// clean.
func TestKillNodeDrill(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	chunks := makeChunks(t, 30, 8, 11)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	vnode, _ := c.Node(victim)
	lostPrimaries := vnode.NumChunks()
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	// The degraded cluster fails Validate loudly, pointing at PlanRecover.
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("degraded Validate = %v, want degraded error", err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost := plan.Unrecoverable(); len(lost) != 0 {
		t.Fatalf("R=2 recovery reported %d unrecoverable chunk(s): %v", len(lost), lost)
	}
	if len(plan.recovers) < lostPrimaries {
		t.Fatalf("plan recovers %d chunks, the down node owned %d", len(plan.recovers), lostPrimaries)
	}
	d, err := c.ExecuteRebalance(plan)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("recovery must take simulated time")
	}
	// Every chunk must be reachable again, owned by a healthy node.
	for _, ch := range chunks {
		owner, ok := c.Owner(ch.Key())
		if !ok {
			t.Fatalf("chunk %s lost from catalog", ch.Ref())
		}
		if owner == victim {
			t.Fatalf("chunk %s still owned by the down node", ch.Ref())
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-recovery Validate: %v", err)
	}
	// Readmit the repaired node: stale payloads dropped, replica arrays
	// backfilled, cluster clean again.
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
	if vnode.NumChunks() != 0 {
		t.Errorf("readmitted node still holds %d re-owned primaries", vnode.NumChunks())
	}
}

// TestClampedRecoveryThenReadmit: R=2 on two nodes. Failing one clamps
// recovery to zero secondaries (Validate-clean while degraded); readmitting
// the node must re-replicate on its own, because no later plan revisits
// those primaries — PlanRecover demands a down node.
func TestClampedRecoveryThenReadmit(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2)
	if _, err := c.Insert(makeChunks(t, 8, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Unrecoverable()) > 0 {
		t.Fatalf("unexpected unrecoverable: %v", plan.Unrecoverable())
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("degraded-but-recovered cluster should validate: %v", err)
	}
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("cluster fails Validate after readmit: %v", err)
	}
}

func TestPlanRecoverReportsUnrecoverableAtR1(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory) // replication factor 1
	chunks := makeChunks(t, 20, 8, 13)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	vnode, _ := c.Node(victim)
	var want []array.ChunkRef
	for _, info := range vnode.ChunkInfos() {
		want = append(want, info.Ref)
	}
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.recovers) != 0 {
		t.Errorf("R=1 plan recovers %d chunks, want 0", len(plan.recovers))
	}
	lost := plan.Unrecoverable()
	if len(lost) != len(want) {
		t.Fatalf("plan lists %d unrecoverable chunks, the node owned %d", len(lost), len(want))
	}
	wantSet := make(map[array.ChunkKey]bool, len(want))
	for _, ref := range want {
		wantSet[ref.Packed()] = true
	}
	for _, ref := range lost {
		if !wantSet[ref.Packed()] {
			t.Errorf("unrecoverable list names %s, which the node did not own", ref)
		}
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	// Nothing was restorable: the cluster stays accountably degraded.
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Validate = %v, want degraded (lost chunks stay catalogued)", err)
	}
	// Readmitting the node with its data intact heals everything.
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
}

func TestFailNodePublishesRemovals(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	chunks := makeChunks(t, 12, 8, 17)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	vnode, _ := c.Node(victim)
	owned := vnode.NumChunks()
	var mu sync.Mutex
	events := map[PlacementEventKind]int{}
	c.SubscribePlacement(func(gen uint64, batch []PlacementEvent) {
		mu.Lock()
		for _, e := range batch {
			events[e.Kind]++
		}
		mu.Unlock()
	})
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	removes := events[PlacementRemove]
	mu.Unlock()
	if removes != owned {
		t.Errorf("FailNode published %d removals, node owned %d chunks", removes, owned)
	}
	// Promotions re-announce the chunks on their new owners.
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	adds := events[PlacementAdd]
	mu.Unlock()
	if adds != owned {
		t.Errorf("recovery published %d adds, want %d promotions", adds, owned)
	}
}

func TestRebalanceRetryAbsorbsTransientFaults(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 24, 8, 19)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanScaleOut(1)
	if err != nil {
		t.Fatal(err)
	}
	added := plan.Added()
	if len(added) != 1 {
		t.Fatalf("added %v, want one node", added)
	}
	dst, _ := c.Node(added[0])
	fs := NewFaultStore(dst.store)
	fs.FailNextPuts(2) // two transient faults, retries default to 3 attempts
	dst.store = fs
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatalf("retry should absorb 2 transient faults: %v", err)
	}
	if got := fs.Injected(); got != 2 {
		t.Errorf("FaultStore injected %d faults, want 2", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceRetryExhaustionRollsBack(t *testing.T) {
	c, err := New(Config{
		InitialNodes:    2,
		NodeCapacity:    10 << 20,
		Partitioner:     consistentFactory,
		TransferRetries: 2,
		TransferBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	chunks := makeChunks(t, 24, 8, 23)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	before := c.TotalBytes()
	plan, err := c.PlanScaleOut(1)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := c.Node(plan.Added()[0])
	fs := NewFaultStore(dst.store)
	fs.FailNextPuts(10) // outlasts the 2 attempts: a permanent fault
	dst.store = fs
	if _, err := c.ExecuteRebalance(plan); !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted retries must surface the injected fault, got %v", err)
	}
	if got := c.TotalBytes(); got != before {
		t.Errorf("rollback left %d bytes, want %d", got, before)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("rollback must leave the cluster clean: %v", err)
	}
}

func TestValidateReplicaAuditCatchesDrift(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	chunks := makeChunks(t, 10, 8, 29)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remove one secondary payload behind the catalog's back.
	victim := chunks[0]
	reps := c.ReplicaHolders(victim.Key())
	if len(reps) != 1 {
		t.Fatalf("chunk %s has %d secondaries, want 1", victim.Ref(), len(reps))
	}
	holder, _ := c.Node(reps[0])
	if _, ok := holder.takeReplica(victim.Key()); !ok {
		t.Fatal("secondary payload missing before the audit")
	}
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "misses its assigned secondary") {
		t.Fatalf("Validate = %v, want missing-secondary error", err)
	}
	holder.putReplica(victim)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanningRoutesAroundDownNodes(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	seed := makeChunks(t, 10, 8, 31)
	if _, err := c.Insert(seed); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	// Ingest while degraded: placements divert off the down node.
	more := makeChunks(t, 40, 8, 37)
	var fresh []*array.Chunk
	seen := make(map[array.ChunkKey]bool)
	for _, ch := range seed {
		seen[ch.Key()] = true
	}
	for _, ch := range more {
		if !seen[ch.Key()] {
			fresh = append(fresh, ch)
			seen[ch.Key()] = true
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no fresh chunks to insert")
	}
	if _, err := c.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	for _, ch := range fresh {
		owner, _ := c.Owner(ch.Key())
		if owner == victim {
			t.Fatalf("degraded ingest placed %s on the down node", ch.Ref())
		}
		for _, h := range c.ReplicaHolders(ch.Key()) {
			if h == victim {
				t.Fatalf("degraded ingest placed a secondary of %s on the down node", ch.Ref())
			}
		}
	}
	// Migrating onto or off the down node is rejected at planning time.
	var onVictim, healthyRef array.ChunkRef
	for _, ch := range seed {
		if owner, _ := c.Owner(ch.Key()); owner == victim {
			onVictim = ch.Ref()
		} else {
			healthyRef = ch.Ref()
		}
	}
	if onVictim.Array != "" {
		_, err := c.PlanMigrate([]partition.Move{{Ref: onVictim, From: victim, To: c.Coordinator()}})
		if err == nil || !strings.Contains(err.Error(), "down node") {
			t.Errorf("moving off a down node: err = %v, want down-node rejection", err)
		}
	}
	if healthyRef.Array != "" {
		owner, _ := c.Owner(healthyRef.Packed())
		_, err := c.PlanMigrate([]partition.Move{{Ref: healthyRef, From: owner, To: victim}})
		if err == nil || !strings.Contains(err.Error(), "down node") {
			t.Errorf("moving onto a down node: err = %v, want down-node rejection", err)
		}
	}
}

// TestChaosFailRecoverUnderLoad interleaves the failure lifecycle with
// concurrent ingest and recovery planning on a fixed topology, then heals
// the cluster and audits it. Run under -race this doubles as the
// concurrency check for the health state machinery.
func TestChaosFailRecoverUnderLoad(t *testing.T) {
	c, err := New(Config{
		InitialNodes:      4,
		NodeCapacity:      64 << 20,
		Partitioner:       consistentFactory,
		ReplicationFactor: 2,
		TransferBackoff:   time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(makeChunks(t, 30, 8, 41)); err != nil {
		t.Fatal(err)
	}
	// Fixed topology for the concurrent phase: snapshot reads like Nodes()
	// must not race scale-out, per the cluster's concurrency contract.
	victims := []partition.NodeID{1, 2, 3} // non-coordinators
	tolerable := func(err error) bool {
		if err == nil {
			return true
		}
		for _, frag := range []string{
			"stale", "down", "already", "not down", "degraded",
			"duplicate", "already catalogued",
		} {
			if strings.Contains(err.Error(), frag) {
				return true
			}
		}
		return false
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	report := func(err error) {
		if !tolerable(err) {
			select {
			case errCh <- err:
			default:
			}
		}
	}
	// Ingester: fresh chunk batches, distinct grid slots per goroutine via
	// disjoint seed ranges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := testSchema()
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < iters; i++ {
			cc := array.ChunkCoord{rng.Int63n(16), rng.Int63n(16)}
			ch := array.NewChunk(s, cc)
			origin := s.ChunkOrigin(cc)
			ch.AppendCell(array.Coord{origin[0], origin[1]}, []array.CellValue{{Float: rng.Float64()}})
			report(errIgnoreDuplicate(c, ch))
		}
	}()
	// Failure injector: fail and recover random non-coordinators.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(47))
		for i := 0; i < iters; i++ {
			id := victims[rng.Intn(len(victims))]
			if rng.Intn(2) == 0 {
				report(c.FailNode(id))
			} else {
				_, err := c.RecoverNode(id)
				report(err)
			}
		}
	}()
	// Recovery planner: plan and execute recoveries against whatever is
	// down right now; stale plans and healthy nodes are expected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(53))
		for i := 0; i < iters; i++ {
			id := victims[rng.Intn(len(victims))]
			plan, err := c.PlanRecover(id)
			if err != nil {
				report(err)
				continue
			}
			if rng.Intn(4) == 0 {
				plan.Discard()
				continue
			}
			_, err = c.ExecuteRebalance(plan)
			report(err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("chaos surfaced an intolerable error: %v", err)
	default:
	}
	// Heal: recover every down node, then restore redundancy.
	for _, id := range victims {
		if h, _ := c.NodeHealthOf(id); h == NodeDown {
			if _, err := c.RecoverNode(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Re-replicate anything the churn left short of secondaries: recovery
	// planning also repairs shortfalls caused by past failures.
	if err := c.FailNode(victims[0]); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victims[0])
	if err != nil {
		t.Fatal(err)
	}
	if lost := plan.Unrecoverable(); len(lost) != 0 {
		t.Fatalf("final recovery found %d unrecoverable chunk(s): %v", len(lost), lost)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNode(victims[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-chaos Validate: %v", err)
	}
}

// errIgnoreDuplicate inserts one chunk, treating a duplicate-placement
// rejection (another goroutine claimed the slot) as success.
func errIgnoreDuplicate(c *Cluster, ch *array.Chunk) error {
	_, err := c.Insert([]*array.Chunk{ch})
	if err != nil && strings.Contains(err.Error(), "already") {
		return nil
	}
	return err
}
