package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// IngestPlan is a validated batch placement, ready to execute: every chunk
// of the batch paired with its partitioner-assigned destination, with the
// paper's Eq 6 cost split (coordinator-local disk bytes vs. shipped
// network bytes) precomputed.
//
// Plans are produced by PlanInsert, which does all the fallible work —
// schema checks, duplicate detection within the batch and against the
// catalog, placement, destination validation — and reserves the chunks'
// catalog entries so no concurrent batch can claim them. A plan must then
// be either executed exactly once (ExecutePlan) or discarded (Discard) to
// release the reservations; Validate refuses to audit while plans are
// outstanding, since their chunks are catalogued but not yet stored.
//
// A plan is pinned to the cluster topology it was computed against: a
// rebalance committing between planning and execution — PlanScaleOut
// revising the table, or ExecuteRebalance (and the ScaleOut wrapper)
// moving chunks — invalidates it (ExecutePlan releases its
// reservations and reports the staleness; plan the batch again against
// the new table).
//
// Note that a stateful scheme's table advances at planning time — Append's
// fill accounting counts a planned batch even if the plan is later
// discarded. Discard is an error-recovery hatch, not a free what-if probe.
type IngestPlan struct {
	c        *Cluster
	chunks   []*array.Chunk     // canonical (array, coordinate) order
	dests    []partition.NodeID // parallel to chunks
	sizes    []int64            // parallel to chunks, SizeBytes computed once
	destList []partition.NodeID // distinct destinations, first-seen order
	epoch    uint64             // topology epoch the placement was computed under
	// repDests holds the secondary copy placements, parallel to chunks;
	// nil at replication factor 1.
	repDests [][]partition.NodeID

	localBytes  int64
	remoteBytes int64

	// state: 0 = planned, 1 = executed, 2 = discarded.
	state atomic.Int32
}

// NumChunks returns the number of chunks the plan places.
func (p *IngestPlan) NumChunks() int { return len(p.chunks) }

// LocalBytes returns the payload landing on the coordinator (charged at
// disk rate δ).
func (p *IngestPlan) LocalBytes() int64 { return p.localBytes }

// RemoteBytes returns the payload shipped to other nodes (charged at
// network rate t).
func (p *IngestPlan) RemoteBytes() int64 { return p.remoteBytes }

// NumDestinations returns how many distinct nodes receive chunks — the
// execution phase's maximum parallelism.
func (p *IngestPlan) NumDestinations() int { return len(p.destList) }

// Discard releases an unexecuted plan's catalog reservations. Discarding
// an executed (or already discarded) plan is a no-op.
func (p *IngestPlan) Discard() {
	if p != nil && p.state.CompareAndSwap(planStatePlanned, planStateDiscarded) {
		p.release()
	}
}

// release drops the plan's catalog reservations and its outstanding count.
func (p *IngestPlan) release() {
	for _, ch := range p.chunks {
		p.c.owner.Delete(ch.Key())
	}
	p.c.pendingPlans.Add(-1)
}

const (
	planStatePlanned int32 = iota
	planStateExecuted
	planStateDiscarded
)

// Insert routes a batch of new chunks through the coordinator to their
// partitioner-assigned homes as one plan → execute round, following the
// paper's cost shape (Eq 6): the coordinator writes its local share at disk
// rate δ and ships the rest over the network at rate t, one batch per
// destination node. Chunks are placed in
// canonical order so placement is deterministic regardless of batch order.
// Inserting a chunk that already exists — or twice in one batch — is an
// error (no-overwrite storage), detected in the plan phase before anything
// is stored: a failed Insert changes nothing.
//
// Insert is safe for concurrent use; parallel batches interleave against
// the sharded catalog without double-placing.
func (c *Cluster) Insert(chunks []*array.Chunk) (Duration, error) {
	c.admin.RLock()
	defer c.admin.RUnlock()
	plan, err := c.planInsert(chunks)
	if err != nil {
		return 0, err
	}
	return c.executePlan(plan)
}

// PlanInsert validates and places a batch without storing anything: the
// fallible half of ingest. The returned plan has reserved its chunks in
// the catalog; pass it to ExecutePlan to make the writes (atomic per
// batch on a store or transport error) or Discard it to back out.
func (c *Cluster) PlanInsert(chunks []*array.Chunk) (*IngestPlan, error) {
	c.admin.RLock()
	defer c.admin.RUnlock()
	return c.planInsert(chunks)
}

// ExecutePlan performs a plan's writes — one batch pushed to each
// destination node over the cluster transport — and returns the simulated
// ingest duration. A plan executes at most once.
func (c *Cluster) ExecutePlan(plan *IngestPlan) (Duration, error) {
	c.admin.RLock()
	defer c.admin.RUnlock()
	return c.executePlan(plan)
}

// planInsert is the plan phase. Caller holds admin (shared).
func (c *Cluster) planInsert(chunks []*array.Chunk) (*IngestPlan, error) {
	c.planMu.Lock()
	defer c.planMu.Unlock()

	// Canonical order via an index sort: keys land once in a contiguous
	// scratch array (cache-friendly comparisons, no chunk-pointer chasing
	// in the comparator) and the sort swaps 4-byte indexes. Scratch
	// buffers are grown once to the batch size and reused across batches
	// (guarded by planMu); the plan keeps its own slices.
	if cap(c.keyScratch) < len(chunks) {
		c.keyScratch = make([]array.ChunkKey, 0, len(chunks))
		c.idxScratch = make([]int32, 0, len(chunks))
	}
	if cap(c.infoScratch) < len(chunks) {
		c.infoScratch = make([]array.ChunkInfo, 0, len(chunks))
	}
	keys := c.keyScratch[:0]
	idx := c.idxScratch[:0]
	for i, ch := range chunks {
		keys = append(keys, ch.Key())
		idx = append(idx, int32(i))
	}
	c.keyScratch, c.idxScratch = keys, idx
	slices.SortFunc(idx, func(a, b int32) int {
		if keys[a].Less(keys[b]) {
			return -1
		}
		if keys[b].Less(keys[a]) {
			return 1
		}
		return 0
	})

	plan := &IngestPlan{
		c:      c,
		chunks: make([]*array.Chunk, len(chunks)),
		dests:  make([]partition.NodeID, len(chunks)),
		sizes:  make([]int64, len(chunks)),
	}
	infos := c.infoScratch[:0]
	var prev array.ChunkKey
	var checkedSchema *array.Schema
	for i, j := range idx {
		ch := chunks[j]
		plan.chunks[i] = ch
		// Batches are overwhelmingly single-array: check each distinct
		// schema once by pointer instead of probing the registry per
		// chunk.
		if ch.Schema != checkedSchema {
			if _, ok := c.schemas[ch.Schema.Name]; !ok {
				return nil, fmt.Errorf("cluster: insert into undefined array %s", ch.Schema.Name)
			}
			checkedSchema = ch.Schema
		}
		key := keys[j]
		if i > 0 && key == prev {
			return nil, fmt.Errorf("cluster: chunk %s appears twice in one batch", ch.Ref())
		}
		prev = key
		// Duplicate check against the catalog happens here, BEFORE the
		// partitioner sees the batch: a rejected batch must not advance
		// a stateful scheme's table (Append's fill accounting). Between
		// this probe and the reservation below nothing can add catalog
		// entries — planMu excludes other planners and the admin lock
		// excludes migration — so the check is exact.
		if _, dup := c.owner.Get(key); dup {
			return nil, fmt.Errorf("cluster: chunk %s already stored (no-overwrite model)", ch.Ref())
		}
		plan.sizes[i] = ch.SizeBytes()
		infos = append(infos, array.ChunkInfo{Ref: ch.Ref(), Size: plan.sizes[i]})
	}
	c.infoScratch = infos

	asgn, err := c.part.PlaceBatch(infos, c)
	if err != nil {
		return nil, fmt.Errorf("cluster: partitioner rejected batch: %w", err)
	}
	if len(asgn) != len(infos) {
		return nil, fmt.Errorf("cluster: partitioner returned %d assignments for %d chunks", len(asgn), len(infos))
	}
	coord := c.Coordinator()
	degraded := c.downCount.Load() > 0
	var healthy []partition.NodeID
	repWant := 0
	if degraded || c.replication > 1 {
		healthy = c.HealthyNodes()
	}
	if c.replication > 1 {
		repWant = c.replication
		if repWant > len(healthy) {
			repWant = len(healthy)
		}
		repWant--
		plan.repDests = make([][]partition.NodeID, len(chunks))
	}
	for i, a := range asgn {
		dest := a.Node
		node, ok := c.nodes[dest]
		if !ok {
			return nil, fmt.Errorf("cluster: partitioner placed %s on unknown node %d", plan.chunks[i].Ref(), dest)
		}
		if degraded && node.Health() == NodeDown {
			// The partitioner's table still names the Down node; divert
			// the placement deterministically onto a healthy one rather
			// than rejecting ingest while the cluster is degraded.
			fb, ok := partition.FallbackNode(plan.chunks[i].Key(), healthy)
			if !ok {
				return nil, fmt.Errorf("cluster: no healthy node to place %s on", plan.chunks[i].Ref())
			}
			dest = fb
		}
		plan.dests[i] = dest
		if !slices.Contains(plan.destList, dest) {
			plan.destList = append(plan.destList, dest)
		}
		if dest == coord {
			plan.localBytes += plan.sizes[i]
		} else {
			plan.remoteBytes += plan.sizes[i]
		}
		if repWant > 0 {
			reps := partition.ReplicaNodes(plan.chunks[i].Key(), dest, healthy, nil, repWant)
			if len(reps) < repWant {
				return nil, fmt.Errorf("cluster: cannot place %d secondary copy(ies) of %s: only %d healthy candidate(s)", repWant, plan.chunks[i].Ref(), len(reps))
			}
			plan.repDests[i] = reps
			// Secondary copies ride the same ingest fan-out: coordinator
			// copies at disk rate, shipped ones at network rate (Eq 6).
			for _, r := range reps {
				if r == coord {
					plan.localBytes += plan.sizes[i]
				} else {
					plan.remoteBytes += plan.sizes[i]
				}
			}
		}
	}
	// Reserve the batch in the catalog. Everything fallible has passed —
	// and the duplicate probe above plus the locks held here guarantee
	// the claims cannot collide — so a reservation failure is an
	// invariant breach, not a user error.
	for i, ch := range plan.chunks {
		if !c.owner.Reserve(ch.Key(), plan.dests[i]) {
			panic(fmt.Sprintf("cluster: chunk %s reappeared in the catalog during planning", ch.Ref()))
		}
	}
	plan.epoch = c.epoch.Load()
	c.pendingPlans.Add(1)
	return plan, nil
}

// executePlan is the execution phase. Caller holds admin (shared).
func (c *Cluster) executePlan(plan *IngestPlan) (Duration, error) {
	if plan == nil {
		return 0, fmt.Errorf("cluster: nil ingest plan")
	}
	if plan.c != c {
		return 0, fmt.Errorf("cluster: ingest plan belongs to another cluster")
	}
	if plan.epoch != c.epoch.Load() {
		// The topology (and possibly the partitioning table) changed
		// since planning; the destinations are stale. Release the
		// reservations so the batch can be planned again.
		plan.Discard()
		return 0, fmt.Errorf("cluster: ingest plan is stale (topology changed since planning); plan the batch again")
	}
	if !plan.state.CompareAndSwap(planStatePlanned, planStateExecuted) {
		return 0, fmt.Errorf("cluster: ingest plan already executed or discarded")
	}
	// One KindIngest push per destination, then one KindReplica push per
	// secondary holder. Any persistent failure unwinds the destinations
	// that committed and releases the catalog reservations, so a failed
	// batch leaves the cluster exactly as it was.
	var undo undoLog
	err := c.writePlanTransport(plan, &undo)
	if err == nil && plan.repDests != nil {
		err = c.pushPlanReplicas(plan, &undo)
	}
	if err != nil {
		undo.unwind()
		plan.release()
		return 0, err
	}
	c.inserted.Add(int64(len(plan.chunks)))
	c.pendingPlans.Add(-1)
	// The batch is committed — stores written, catalog final — so the
	// placement feed can see it. A failed batch rolled everything back
	// above and publishes nothing.
	if c.feedActive() {
		events := make([]PlacementEvent, len(plan.chunks))
		for i, ch := range plan.chunks {
			events[i] = PlacementEvent{Kind: PlacementAdd, Key: ch.Key(), Node: plan.dests[i], Size: plan.sizes[i]}
		}
		c.publishPlacement(events)
	}
	return c.cost.DiskTime(plan.localBytes) + c.cost.NetTime(plan.remoteBytes), nil
}

// writePlanTransport stores the plan's primaries: the coordinator pushes
// one KindIngest batch per destination node over the cluster transport,
// each push retried against transient faults and, once delivered, logged
// in undo. Delivery is receiver-atomic, so a failed destination
// contributed nothing.
func (c *Cluster) writePlanTransport(plan *IngestPlan, undo *undoLog) error {
	coord := c.Coordinator()
	batch := make([]*array.Chunk, 0, len(plan.chunks))
	for _, id := range plan.destList {
		batch = batch[:0]
		for i, dest := range plan.dests {
			if dest == id {
				batch = append(batch, plan.chunks[i])
			}
		}
		if _, err := c.pushWithRetry(coord, id, transport.KindIngest, batch); err != nil {
			return fmt.Errorf("cluster: ingest batch for node %d: %w", id, err)
		}
		undo.push(func() {
			for i, dest := range plan.dests {
				if dest == id {
					_, _ = c.nodes[id].take(plan.chunks[i].Ref())
				}
			}
		})
	}
	return nil
}

// pushPlanReplicas ships an ingest plan's secondary copies from the
// coordinator, one KindReplica batch per replica destination. The
// catalog's replica sets commit only after every batch lands.
func (c *Cluster) pushPlanReplicas(plan *IngestPlan, undo *undoLog) error {
	coord := c.Coordinator()
	var copies []replicaCopy
	for i, ch := range plan.chunks {
		for _, r := range plan.repDests[i] {
			copies = append(copies, replicaCopy{coord, r, ch})
		}
	}
	if _, err := c.shipReplicas(copies, undo); err != nil {
		return err
	}
	for i, ch := range plan.chunks {
		c.owner.SetReplicas(ch.Key(), plan.repDests[i])
	}
	return nil
}
