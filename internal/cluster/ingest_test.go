package cluster

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

// TestPlanInsertExecute drives the two-phase ingest API explicitly: plan,
// inspect, execute, and verify the result matches what a one-shot Insert
// produces.
func TestPlanInsertExecute(t *testing.T) {
	c := newTestCluster(t, 4, kdFactory)
	chunks := makeChunks(t, 40, 10, 21)
	var want int64
	for _, ch := range chunks {
		want += ch.SizeBytes()
	}
	plan, err := c.PlanInsert(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumChunks() != 40 {
		t.Errorf("plan has %d chunks, want 40", plan.NumChunks())
	}
	if got := plan.LocalBytes() + plan.RemoteBytes(); got != want {
		t.Errorf("plan local + remote bytes = %d, want %d", got, want)
	}
	if plan.NumDestinations() < 2 {
		t.Errorf("a 40-chunk k-d batch on 4 nodes should fan out, got %d destinations", plan.NumDestinations())
	}
	for i := 1; i < len(plan.chunks); i++ {
		if !plan.chunks[i-1].Key().Less(plan.chunks[i].Key()) {
			t.Fatal("plan chunks must be in canonical order")
		}
	}
	dests := append([]partition.NodeID(nil), plan.dests...)
	// The plan phase reserves: a second plan for the same chunks fails.
	if _, err := c.PlanInsert(chunks[:1]); err == nil {
		t.Error("planning an already-planned chunk must fail")
	}
	d, err := c.ExecutePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("execution must take simulated time")
	}
	// A plan executes at most once.
	if _, err := c.ExecutePlan(plan); err == nil {
		t.Error("double execution must fail")
	}
	if c.TotalBytes() != want {
		t.Errorf("TotalBytes = %d, want %d", c.TotalBytes(), want)
	}
	// The catalog agrees with the plan's destinations.
	for i, ch := range plan.chunks {
		owner, ok := c.Owner(ch.Key())
		if !ok || owner != dests[i] {
			t.Fatalf("chunk %s: catalog says (%d,%v), plan said %d", ch.Ref(), owner, ok, dests[i])
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanDiscardReleasesReservations pins Discard: a backed-out plan
// leaves no trace, and the chunks become plannable again.
func TestPlanDiscardReleasesReservations(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 10, 6, 22)
	plan, err := c.PlanInsert(chunks)
	if err != nil {
		t.Fatal(err)
	}
	plan.Discard()
	plan.Discard() // idempotent
	if c.NumChunks() != 0 {
		t.Fatalf("discarded plan left %d catalog entries", c.NumChunks())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Discarded plans cannot run.
	if _, err := c.ExecutePlan(plan); err == nil {
		t.Error("executing a discarded plan must fail")
	}
	// The chunks are free again.
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanRejectsInBatchDuplicates: the same chunk twice in one batch is a
// plan-phase error and nothing is stored or reserved.
func TestPlanRejectsInBatchDuplicates(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 3, 4, 23)
	batch := []*array.Chunk{chunks[0], chunks[1], chunks[0]}
	_, err := c.Insert(batch)
	if err == nil {
		t.Fatal("duplicate within batch must fail")
	}
	if !strings.Contains(err.Error(), "twice in one batch") {
		t.Errorf("unexpected error: %v", err)
	}
	if c.NumChunks() != 0 {
		t.Errorf("failed batch left %d chunks behind (must be atomic)", c.NumChunks())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedInsertIsAtomic: a batch that fails validation mid-list (an
// undefined array after valid chunks) must leave the cluster untouched —
// the plan phase does all checking before anything is stored.
func TestFailedInsertIsAtomic(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	good := makeChunks(t, 5, 4, 24)
	other := mustSchema("Zzz",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 2}})
	orphan := array.NewChunk(other, array.ChunkCoord{4})
	if _, err := c.Insert(append(append([]*array.Chunk(nil), good...), orphan)); err == nil {
		t.Fatal("undefined array must fail the batch")
	}
	if c.NumChunks() != 0 || c.TotalBytes() != 0 {
		t.Error("failed batch must not leave partial state")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStalePlanRejectedAfterScaleOut: a plan computed before a topology
// change must not execute — its destinations came from the old table. The
// rejection releases the reservations so the batch can be replanned.
func TestStalePlanRejectedAfterScaleOut(t *testing.T) {
	c := newTestCluster(t, 2, kdFactory)
	chunks := makeChunks(t, 30, 8, 31)
	plan, err := c.PlanInsert(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecutePlan(plan); err == nil {
		t.Fatal("executing a pre-scale-out plan must fail")
	}
	if c.NumChunks() != 0 {
		t.Fatalf("stale plan left %d catalog entries", c.NumChunks())
	}
	// Replanning against the new table works and validates.
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateReportsOutstandingPlan: a held plan means catalogued-but-
// unstored chunks; Validate must name that state instead of reporting
// phantom corruption.
func TestValidateReportsOutstandingPlan(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	plan, err := c.PlanInsert(makeChunks(t, 5, 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Validate()
	if err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("Validate with a held plan: %v", err)
	}
	if _, err := c.ExecutePlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedPlanDoesNotAdvanceStatefulScheme pins the plan-phase ordering:
// the catalog duplicate check runs before the partitioner sees the batch,
// so a rejected batch leaves a stateful scheme's table (Append's fill
// accounting) untouched.
func TestFailedPlanDoesNotAdvanceStatefulScheme(t *testing.T) {
	c, err := New(Config{
		InitialNodes: 2,
		NodeCapacity: 10 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			// Capacity sized so roughly three test chunks fill a node.
			return partition.NewAppend(initial, 3000), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	chunks := makeChunks(t, 4, 8, 33) // ~1200 bytes each
	if _, err := c.Insert(chunks[:1]); err != nil {
		t.Fatal(err)
	}
	// A failing batch: the already-stored chunk plus two fresh ones. If
	// placement ran before the duplicate check, Append would count all
	// three sizes against node 0 and spill the next insert early.
	if _, err := c.Insert(chunks[:3]); err == nil {
		t.Fatal("duplicate batch must fail")
	}
	if _, err := c.Insert(chunks[1:3]); err != nil {
		t.Fatal(err)
	}
	n0, _ := c.Node(c.Nodes()[0])
	if n0.NumChunks() != 3 {
		t.Errorf("node 0 holds %d chunks, want all 3 (failed batch must not advance the fill table)", n0.NumChunks())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertBatches is the sharded-catalog concurrency test: many
// goroutines insert disjoint batches in parallel (run under -race in CI).
// Afterwards the catalog, the stores and the accounting must agree exactly.
func TestConcurrentInsertBatches(t *testing.T) {
	const (
		workers   = 8
		perWorker = 30
	)
	c := newTestCluster(t, 4, consistentFactory)
	all := makeChunks(t, workers*perWorker, 8, 25)
	var want int64
	for _, ch := range all {
		want += ch.SizeBytes()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		batch := all[w*perWorker : (w+1)*perWorker]
		wg.Add(1)
		go func(w int, batch []*array.Chunk) {
			defer wg.Done()
			_, errs[w] = c.Insert(batch)
		}(w, batch)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := c.NumChunks(); got != workers*perWorker {
		t.Fatalf("NumChunks = %d, want %d", got, workers*perWorker)
	}
	if got := c.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	// Concurrent lookups against the sharded catalog while validating.
	for _, ch := range all {
		if _, ok := c.Owner(ch.Key()); !ok {
			t.Fatalf("chunk %s lost", ch.Ref())
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertSameChunks: when racing batches overlap, exactly one
// wins each chunk — reservations in the plan phase prevent double
// placement — and the cluster stays consistent.
func TestConcurrentInsertSameChunks(t *testing.T) {
	const workers = 6
	c := newTestCluster(t, 3, consistentFactory)
	chunks := makeChunks(t, 20, 8, 26)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = c.Insert(chunks)
		}(w)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d of %d racing identical batches succeeded, want exactly 1", okCount, workers)
	}
	if got := c.NumChunks(); got != 20 {
		t.Fatalf("NumChunks = %d, want 20", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertOrderIndependentPlacement: the cluster sorts batches into
// canonical order before placing, so a shuffled batch lands identically.
func TestInsertOrderIndependentPlacement(t *testing.T) {
	placements := func(shuffle bool) map[array.ChunkKey]int {
		c := newTestCluster(t, 3, kdFactory)
		chunks := makeChunks(t, 50, 8, 27)
		if shuffle {
			for i := len(chunks) - 1; i > 0; i-- {
				j := (i * 7) % (i + 1)
				chunks[i], chunks[j] = chunks[j], chunks[i]
			}
		}
		if _, err := c.Insert(chunks); err != nil {
			t.Fatal(err)
		}
		out := make(map[array.ChunkKey]int, len(chunks))
		for _, ch := range chunks {
			n, ok := c.Owner(ch.Key())
			if !ok {
				t.Fatalf("chunk %s lost", ch.Ref())
			}
			out[ch.Key()] = int(n)
		}
		return out
	}
	a, b := placements(false), placements(true)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("chunk %v placed on %d sorted, %d shuffled", k, v, b[k])
		}
	}
}
