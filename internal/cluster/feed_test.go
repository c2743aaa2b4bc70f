package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/partition"
)

// feedRecorder collects every published batch, asserting the generation
// stamps arrive strictly increasing.
type feedRecorder struct {
	mu      sync.Mutex
	t       *testing.T
	gens    []uint64
	batches [][]PlacementEvent
}

func (r *feedRecorder) listen(gen uint64, events []PlacementEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.gens); n > 0 && gen <= r.gens[n-1] {
		r.t.Errorf("feed generation went backwards: %d after %d", gen, r.gens[n-1])
	}
	r.gens = append(r.gens, gen)
	r.batches = append(r.batches, append([]PlacementEvent(nil), events...))
}

func (r *feedRecorder) numBatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

// allEvents flattens the recorded batches.
func (r *feedRecorder) allEvents() []PlacementEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []PlacementEvent
	for _, b := range r.batches {
		out = append(out, b...)
	}
	return out
}

// TestFeedPublishesCommittedIngest: a committed batch publishes exactly
// one add per chunk with the catalog's owner, and the generation matches
// PlacementGen.
func TestFeedPublishesCommittedIngest(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	rec := &feedRecorder{t: t}
	if gen := c.SubscribePlacement(rec.listen); gen != 0 {
		t.Fatalf("fresh cluster should be at generation 0, got %d", gen)
	}
	chunks := makeChunks(t, 20, 6, 101)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	events := rec.allEvents()
	if len(events) != len(chunks) {
		t.Fatalf("want %d add events, got %d", len(chunks), len(events))
	}
	if got, want := c.PlacementGen(), uint64(1); got != want {
		t.Fatalf("one committed batch should leave generation %d, got %d", want, got)
	}
	for _, ev := range events {
		if ev.Kind != PlacementAdd {
			t.Fatalf("ingest published %v, want PlacementAdd", ev.Kind)
		}
		owner, ok := c.Owner(ev.Key)
		if !ok || owner != ev.Node {
			t.Fatalf("event says %s on node %d, catalog says %d (ok=%v)", ev.Key, ev.Node, owner, ok)
		}
		if ev.Size <= 0 {
			t.Fatalf("event for %s carries size %d", ev.Key, ev.Size)
		}
	}
}

// TestFeedPublishesCommittedRebalance: executed moves publish one move
// event each (old and new owner), in plan order.
func TestFeedPublishesCommittedRebalance(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	chunks := makeChunks(t, 12, 6, 102)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	rec := &feedRecorder{t: t}
	c.SubscribePlacement(rec.listen)
	nodes := c.Nodes()
	var moves []partition.Move
	for _, ch := range chunks[:5] {
		from, _ := c.Owner(ch.Key())
		to := nodes[0]
		if to == from {
			to = nodes[1]
		}
		moves = append(moves, partition.Move{Ref: ch.Ref(), From: from, To: to, Size: ch.SizeBytes()})
	}
	plan, err := c.PlanMigrate(moves)
	if err != nil {
		t.Fatal(err)
	}
	if rec.numBatches() != 0 {
		t.Fatal("planning must not publish")
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	events := rec.allEvents()
	if len(events) != len(moves) {
		t.Fatalf("want %d move events, got %d", len(moves), len(events))
	}
	for i, ev := range events {
		if ev.Kind != PlacementMove {
			t.Fatalf("rebalance published %v, want PlacementMove", ev.Kind)
		}
		if ev.Key != moves[i].Ref.Packed() || ev.From != moves[i].From || ev.Node != moves[i].To || ev.Size != moves[i].Size {
			t.Fatalf("event %d = %+v does not match move %+v", i, ev, moves[i])
		}
	}
}

// TestFeedSilentOnRollbackAndDiscard: the feed must describe committed
// placement only. A rolled-back rebalance, a rolled-back ingest, a
// discarded plan and a stale execution all publish nothing and leave the
// generation untouched — a subscriber can never see a phantom placement.
func TestFeedSilentOnRollbackAndDiscard(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	chunks := makeChunks(t, 20, 6, 103)
	if _, err := c.Insert(chunks[:16]); err != nil {
		t.Fatal(err)
	}
	rec := &feedRecorder{t: t}
	c.SubscribePlacement(rec.listen)
	gen0 := c.PlacementGen()

	// Discarded ingest plan: reservations released, nothing stored.
	plan, err := c.PlanInsert(chunks[16:18])
	if err != nil {
		t.Fatal(err)
	}
	plan.Discard()

	// Rolled-back rebalance: fault-inject the receiver's store so the
	// shipment fails after validation.
	victim := chunks[0]
	from, _ := c.Owner(victim.Key())
	to := c.Nodes()[0]
	if to == from {
		to = c.Nodes()[1]
	}
	dst, _ := c.Node(to)
	fs := NewFaultStore(dst.store)
	fs.FailPuts(victim.Ref(), -1)
	dst.store = fs
	moves := []partition.Move{{Ref: victim.Ref(), From: from, To: to, Size: victim.SizeBytes()}}
	if _, err := migrate(c, moves); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("a migration should surface the injected failure, got %v", err)
	}

	// Rolled-back ingest: same injected fault on a fresh batch's chunk.
	fs.FailPuts(chunks[18].Ref(), -1)
	if _, err := c.Insert(chunks[16:]); err != nil {
		// The batch may or may not route the poisoned chunk to the
		// poisoned node; only a routed batch fails. Either way the feed
		// stays silent unless the batch committed.
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("unexpected insert error: %v", err)
		}
		if rec.numBatches() != 0 || c.PlacementGen() != gen0 {
			t.Fatalf("rolled-back work published %d batch(es), generation %d -> %d",
				rec.numBatches(), gen0, c.PlacementGen())
		}
		return
	}
	// The batch committed (fault not routed): exactly its adds published.
	events := rec.allEvents()
	if len(events) != len(chunks[16:]) {
		t.Fatalf("committed batch should publish %d events, got %d", len(chunks[16:]), len(events))
	}
	for _, ev := range events[:len(events)] {
		if ev.Kind != PlacementAdd {
			t.Fatalf("got %v, want PlacementAdd", ev.Kind)
		}
	}
}

// TestFeedSilentOnStalePlans: executions rejected for epoch staleness
// release their plans without publishing.
func TestFeedSilentOnStalePlans(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 16, 6, 104)
	if _, err := c.Insert(chunks[:12]); err != nil {
		t.Fatal(err)
	}
	rec := &feedRecorder{t: t}
	c.SubscribePlacement(rec.listen)

	ingest, err := c.PlanInsert(chunks[12:])
	if err != nil {
		t.Fatal(err)
	}
	// Scale-out planning bumps the epoch, staling the ingest plan. The
	// scale-out's own execution MAY move chunks, which publishes — record
	// the split.
	splan, err := c.PlanScaleOut(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.numBatches() != 0 {
		t.Fatal("planning a scale-out must not publish")
	}
	splan.Discard()
	if rec.numBatches() != 0 {
		t.Fatal("discarding a scale-out plan must not publish")
	}
	if _, err := c.ExecutePlan(ingest); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale ingest plan should be rejected, got %v", err)
	}
	if rec.numBatches() != 0 || c.PlacementGen() != 0 {
		t.Fatalf("stale execution published %d batch(es), generation %d", rec.numBatches(), c.PlacementGen())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFeedInactiveCostsNothing: without a subscriber the generation never
// advances (and the hot path skips event construction entirely).
func TestFeedInactiveCostsNothing(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 8, 6, 105)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	if got := c.PlacementGen(); got != 0 {
		t.Fatalf("unsubscribed feed advanced to generation %d", got)
	}
}

// TestFeedEpochAccessor: Epoch moves with scale-out planning and rebalance
// execution, and is readable without locks.
func TestFeedEpochAccessor(t *testing.T) {
	c := newTestCluster(t, 2, consistentFactory)
	chunks := makeChunks(t, 10, 6, 106)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	e0 := c.Epoch()
	splan, err := c.PlanScaleOut(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("PlanScaleOut should advance the epoch: %d -> %d", e0, c.Epoch())
	}
	splan.Discard()
	if c.Epoch() != e0+1 {
		t.Fatal("discarding a scale-out plan must not move the epoch again")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceFreezesFeed: inside Quiesce no batch is pending and the
// generation is frozen — the consistent-snapshot contract rebuilds rely
// on.
func TestQuiesceFreezesFeed(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	rec := &feedRecorder{t: t}
	c.SubscribePlacement(rec.listen)
	chunks := makeChunks(t, 32, 6, 107)
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			_, _ = c.Insert(chunks[lane*8 : (lane+1)*8])
		}(lane)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			c.Quiesce(func() {
				g0 := c.PlacementGen()
				n0 := rec.numBatches()
				if g0 != uint64(n0) {
					t.Errorf("quiesced generation %d but %d batches delivered", g0, n0)
				}
			})
		}
	}()
	wg.Wait()
	<-done
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
