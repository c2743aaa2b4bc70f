package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// ErrStalePlan is returned by ExecuteRebalance when the topology epoch
// moved between planning and execution — another rebalance committed, a
// scale-out planned, or a node's health changed. The plan has been released
// (no Discard needed); plan again against the current topology. Match with
// errors.Is: the supervisor's retry loop treats it as a plan-again signal
// rather than a transfer failure.
var ErrStalePlan = errors.New("cluster: rebalance plan is stale (topology changed since planning); plan again")

// RebalancePlan is a validated set of chunk relocations, ready to execute:
// every move checked against the catalog and the stores up front, grouped
// by receiving node, with the transfer's wire volume and Eq 7 duration
// predicted before anything ships.
//
// Plans are produced by PlanScaleOut (which also provisions the new nodes
// and revises the partitioner's table) and PlanMigrate (externally planned
// relocations, e.g. the co-access advisor's). A plan must then be either
// executed exactly once (ExecuteRebalance) or released with Discard;
// Validate refuses to audit while rebalance plans are outstanding, naming
// them so a leaked plan fails loudly instead of surfacing as drift.
//
// A plan is pinned to the topology epoch it was computed under: any other
// rebalance executing (or scale-out planning) in between advances the
// epoch and makes this plan stale — ExecuteRebalance rejects it and
// releases it. The same epoch machinery invalidates outstanding ingest
// plans when a rebalance commits, and a rebalance plan can never move a
// reserved-but-unstored ingest chunk: planning verifies every source
// actually holds its chunk.
//
// Note that PlanScaleOut commits the topology at planning time — the new
// nodes join and the partitioner's table advances even if the plan is
// later discarded (the Partitioner contract has no un-AddNodes). Discard
// backs out only the data movement: the cluster stays consistent, merely
// unbalanced until the next rebalance. Like IngestPlan.Discard, it is an
// error-recovery hatch, not a free what-if probe; Advise-style what-ifs
// belong on PlanMigrate plans, whose Discard is side-effect-free.
type RebalancePlan struct {
	c      *Cluster
	moves  []partition.Move
	groups []receiverGroup    // per receiving node, ascending node ID
	added  []partition.NodeID // nodes provisioned by PlanScaleOut
	epoch  uint64             // topology epoch the plan was computed under

	// recovers/lost are populated by PlanRecover: the chunk restorations
	// to perform, and the chunks with no surviving copy (canonical order).
	recovers []recoverOp
	lost     []array.ChunkRef

	totalBytes int64
	repBytes   int64 // replica payload: replicated-array gaps, recovery fills
	maxRecv    int64 // busiest receiver's volume, replicas included

	// Measured execution outcome (populated by executeRebalance):
	// measuredWire is the Eq 7 fold over the volumes actually shipped —
	// equal to WireBytes() when the replica set did not change between
	// planning and execution — frameBytes is what the transport reports
	// crossed the wire (see RebalanceResult.FrameBytes), and measuredDur is
	// the execution's wall clock.
	measuredWire int64
	frameBytes   int64
	measuredDur  time.Duration

	// state: 0 = planned, 1 = executed, 2 = discarded (IngestPlan's codes).
	state atomic.Int32
}

// RebalanceResult reports what an executed rebalance plan actually did,
// with the measured transfer placed next to the Eq 7 prediction so cost
// model calibration can compare the two directly.
type RebalanceResult struct {
	// Moves and MovedBytes restate the plan's relocation volume.
	Moves      int
	MovedBytes int64
	// PredictedWireBytes/PredictedDuration are the plan-time Eq 7
	// quantities (WireBytes / PredictedDuration).
	PredictedWireBytes int64
	PredictedDuration  Duration
	// MeasuredWireBytes is the Eq 7 fold over the volumes execution
	// actually shipped — equal to PredictedWireBytes unless the replica
	// set changed between planning and execution.
	MeasuredWireBytes int64
	// FrameBytes is the transport-reported volume that crossed the wire.
	// Over TCP that is codec framing, protocol headers and retried
	// attempts included; in process (the loopback transport) it is the
	// payload bytes of every push — moves, replica copies and fills.
	FrameBytes int64
	// MeasuredDuration is the execution's wall-clock time — real seconds
	// next to PredictedDuration's simulated seconds.
	MeasuredDuration time.Duration
}

// Result reports the plan's predicted-vs-measured transfer. The measured
// fields are zero until the plan has executed.
func (p *RebalancePlan) Result() RebalanceResult {
	return RebalanceResult{
		Moves:              len(p.moves),
		MovedBytes:         p.totalBytes,
		PredictedWireBytes: p.WireBytes(),
		PredictedDuration:  p.PredictedDuration(),
		MeasuredWireBytes:  p.measuredWire,
		FrameBytes:         p.frameBytes,
		MeasuredDuration:   p.measuredDur,
	}
}

// recoverOp restores one chunk's redundancy after a node failure: promote a
// surviving secondary to primary (the failed node owned it) and/or ship
// fresh secondary copies onto healthy nodes.
type recoverOp struct {
	ref  array.ChunkRef
	size int64
	// promote: host's replica becomes the primary (owner was Down).
	// Otherwise host is the surviving owner and the op only re-replicates.
	promote bool
	host    partition.NodeID
	reps    []partition.NodeID // final secondary set, ascending
	fill    []partition.NodeID // subset of reps receiving new copies from host
	// oldOwner/oldReps restore the catalog if a later op's store write
	// fails and the plan rolls back.
	oldOwner partition.NodeID
	oldReps  []partition.NodeID
}

// receiverGroup is one receiving node's share of the plan: the indexes
// into moves it receives, shipped as a single batch push.
type receiverGroup struct {
	node  partition.NodeID
	idx   []int
	bytes int64
}

// ReceiverBatch describes one receiving node's share of a rebalance plan —
// the batch that crosses the transport to it in one push.
type ReceiverBatch struct {
	Node   partition.NodeID
	Chunks int
	Bytes  int64
}

// NumMoves returns the number of chunk relocations the plan performs.
func (p *RebalancePlan) NumMoves() int { return len(p.moves) }

// Unrecoverable returns the chunks PlanRecover found no surviving copy of,
// in canonical order — at replication factor 1 that is every chunk the
// failed node owned. Executing the plan restores everything else; the
// chunks listed here stay catalogued to the down node, so Validate keeps
// reporting the cluster degraded and queries over them return
// ErrPartialResult until RecoverNode readmits the node with its data.
func (p *RebalancePlan) Unrecoverable() []array.ChunkRef {
	return append([]array.ChunkRef(nil), p.lost...)
}

// Bytes returns the total chunk payload the plan ships.
func (p *RebalancePlan) Bytes() int64 { return p.totalBytes }

// Added returns the nodes PlanScaleOut provisioned (empty for PlanMigrate
// plans).
func (p *RebalancePlan) Added() []partition.NodeID {
	return append([]partition.NodeID(nil), p.added...)
}

// Receivers returns the per-receiver batches in ascending node order: how
// many chunks and bytes each receiving node gets in its one push.
func (p *RebalancePlan) Receivers() []ReceiverBatch {
	out := make([]ReceiverBatch, len(p.groups))
	for i, g := range p.groups {
		out[i] = ReceiverBatch{Node: g.node, Chunks: len(g.idx), Bytes: g.bytes}
	}
	return out
}

// WireBytes returns the predicted effective wire volume of Eq 7: the
// larger of the fabric-capped aggregate (moved payload plus replica copies
// to new nodes) and the busiest single receiver's volume — the quantity
// CostModel.NetTime is charged on.
func (p *RebalancePlan) WireBytes() int64 {
	return p.c.rebalanceWire(p.totalBytes, p.repBytes, p.maxRecv)
}

// PredictedDuration returns the CostModel.NetTime estimate of the
// reorganization, readable before committing: the receiver-parallel
// transfer of WireBytes, plus the fixed reorganization overhead for
// scale-out plans. ExecuteRebalance charges exactly this unless the
// replica set changed between planning and execution.
func (p *RebalancePlan) PredictedDuration() Duration {
	return p.c.rebalanceCharge(p.totalBytes, p.repBytes, p.maxRecv, len(p.added) > 0)
}

// rebalanceWire is the Eq 7 effective wire volume: the larger of the
// fabric-capped aggregate and the busiest single receiver.
func (c *Cluster) rebalanceWire(moved, replicas, maxRecv int64) int64 {
	wire := (moved + replicas) / int64(c.cost.FabricWidth)
	if maxRecv > wire {
		wire = maxRecv
	}
	return wire
}

// rebalanceCharge folds the Eq 7 quantities into simulated time — the one
// formula both PredictedDuration and ExecuteRebalance charge through, so
// prediction and charge cannot drift.
func (c *Cluster) rebalanceCharge(moved, replicas, maxRecv int64, scaleOut bool) Duration {
	if !scaleOut && moved == 0 && replicas == 0 {
		return 0
	}
	d := c.cost.NetTime(c.rebalanceWire(moved, replicas, maxRecv))
	if scaleOut {
		d += Duration(c.cost.ReorgFixedSec)
	}
	return d
}

// Discard releases an unexecuted plan. Discarding an executed (or already
// discarded) plan is a no-op. For scale-out plans the provisioned nodes
// and the revised partitioner table remain — only the data movement is
// abandoned.
func (p *RebalancePlan) Discard() {
	if p == nil || !p.state.CompareAndSwap(planStatePlanned, planStateDiscarded) {
		return
	}
	p.c.pendingRebalances.Add(-1)
}

// PlanScaleOut provisions k new nodes, lets the partitioner revise its
// table, and returns the validated migration as a RebalancePlan — the
// predicted wire bytes, per-receiver batch sizes and Eq 7 duration are
// readable before a byte moves. The topology change commits here: the
// epoch advances (outstanding ingest plans go stale) and the new nodes
// are live, so execute or discard the plan promptly.
func (c *Cluster) PlanScaleOut(k int) (*RebalancePlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: ScaleOut(%d): need k >= 1", k)
	}
	c.admin.Lock()
	defer c.admin.Unlock()
	return c.planScaleOut(k)
}

// planScaleOut is the scale-out plan phase. Caller holds admin exclusive.
func (c *Cluster) planScaleOut(k int) (*RebalancePlan, error) {
	// Until the partitioner accepts the new nodes, a failure unprovisions
	// them and the cluster is unchanged.
	var added []partition.NodeID
	var undo undoLog
	for i := 0; i < k; i++ {
		id := c.nextID
		store, err := c.newStore(id)
		if err != nil {
			undo.unwind()
			return nil, err
		}
		c.nextID++
		c.nodes[id] = newNode(id, c.nodeCapacity, store)
		undo.push(func() {
			delete(c.nodes, id)
			c.nextID--
		})
		added = append(added, id)
	}
	moves, err := c.part.AddNodes(added, c)
	if err != nil {
		undo.unwind()
		return nil, fmt.Errorf("cluster: partitioner rejected scale-out: %w", err)
	}
	c.order = append(c.order, added...)
	c.publishLiveNodes()
	// The topology (and the partitioning table) changed: any outstanding
	// ingest or rebalance plan is now stale, so advance the epoch.
	// Deliberately after the fallible section — a rejected scale-out
	// leaves plans valid.
	c.epoch.Add(1)
	// The new nodes join the transport so the migration (and everything
	// after) can reach them. A serve failure aborts the plan: the topology
	// stands (monotonic growth) but the migration is not attempted against
	// unreachable endpoints.
	for _, id := range added {
		if err := c.transport.Serve(id, &nodeService{c: c, node: c.nodes[id]}); err != nil {
			return nil, err
		}
	}
	plan, err := c.buildRebalancePlan(moves, added)
	if err != nil {
		// The partitioner's moves come from the catalog via State, so
		// this is defensive: the topology change stands, the migration
		// is abandoned.
		return nil, err
	}
	return plan, nil
}

// PlanMigrate validates an externally planned set of chunk relocations —
// the entry point for online placement optimisers such as the co-access
// advisor — and returns it as a RebalancePlan grouped per receiver.
// Unlike PlanScaleOut nothing changes at planning time; discarding the
// plan is side-effect-free.
func (c *Cluster) PlanMigrate(moves []partition.Move) (*RebalancePlan, error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	return c.buildRebalancePlan(moves, nil)
}

// PlanRecover computes how to restore redundancy after FailNode(id): every
// chunk the down node owned is promoted onto a surviving secondary (or
// reported via Unrecoverable when no copy survives — always the case at
// replication factor 1), and chunks left short of secondaries — by this
// failure or any other down node — get fresh copies re-replicated onto
// healthy nodes, keeping surviving holders in place. The returned plan is
// inspectable like any other RebalancePlan and runs through
// ExecuteRebalance; Discard is side-effect-free.
func (c *Cluster) PlanRecover(id partition.NodeID) (*RebalancePlan, error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	node, ok := c.nodes[id]
	if !ok {
		return nil, fmt.Errorf("cluster: PlanRecover(%d): unknown node", id)
	}
	if node.Health() != NodeDown {
		return nil, fmt.Errorf("cluster: PlanRecover(%d): node is not down", id)
	}
	healthy := c.HealthyNodes()
	want := c.requiredSecondaries()
	plan := &RebalancePlan{c: c, epoch: c.epoch.Load()}

	// Chunks the down node owned: promote or declare lost.
	var owned []array.ChunkRef
	c.owner.Each(func(key array.ChunkKey, owner partition.NodeID) {
		if owner == id {
			owned = append(owned, key.Ref())
		}
	})
	sort.Slice(owned, func(i, j int) bool { return owned[i].Packed().Less(owned[j].Packed()) })
	for _, ref := range owned {
		key := ref.Packed()
		old := c.owner.Replicas(key)
		var survivors []partition.NodeID
		var size int64
		for _, h := range old {
			if c.nodes[h].Health() == NodeDown {
				continue
			}
			rep, ok := c.nodes[h].Replica(ref)
			if !ok {
				continue
			}
			survivors = append(survivors, h)
			size = rep.SizeBytes()
		}
		if len(survivors) == 0 {
			plan.lost = append(plan.lost, ref)
			continue
		}
		host, rest := survivors[0], survivors[1:]
		fill := partition.ReplicaNodes(key, host, healthy, rest, want-len(rest))
		reps := append(append([]partition.NodeID(nil), rest...), fill...)
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		plan.recovers = append(plan.recovers, recoverOp{
			ref: ref, size: size, promote: true, host: host,
			reps: reps, fill: fill, oldOwner: id, oldReps: old,
		})
	}

	// Chunks owned by healthy nodes but short of secondaries (a holder on
	// this — or any — down node): re-replicate from the primary, keeping
	// surviving holders in place.
	for _, e := range c.owner.sortedReplicas() {
		owner, ok := c.owner.Get(e.key)
		if !ok || owner == id || c.nodes[owner].Health() == NodeDown {
			continue // handled by the promotion pass (this or another node's)
		}
		ref := e.key.Ref()
		var survivors []partition.NodeID
		for _, h := range e.nodes {
			if c.nodes[h].Health() == NodeDown {
				continue
			}
			if _, ok := c.nodes[h].Replica(ref); !ok {
				continue
			}
			survivors = append(survivors, h)
		}
		if len(survivors) == len(e.nodes) && len(survivors) >= want {
			continue // intact
		}
		primary, _ := c.nodes[owner].Chunk(ref)
		if primary == nil {
			continue // reserved by an outstanding ingest plan; nothing to copy yet
		}
		fill := partition.ReplicaNodes(e.key, owner, healthy, survivors, want-len(survivors))
		reps := append(append([]partition.NodeID(nil), survivors...), fill...)
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		plan.recovers = append(plan.recovers, recoverOp{
			ref: ref, size: primary.SizeBytes(), host: owner,
			reps: reps, fill: fill, oldOwner: owner, oldReps: e.nodes,
		})
	}

	// Predicted receiver volumes: the replicated-array gaps execution
	// fills, and one copy of the chunk per fill.
	recv := make(map[partition.NodeID]int64)
	plan.repBytes = foldCopies(recv, c.replicatedGaps())
	for _, op := range plan.recovers {
		for _, f := range op.fill {
			recv[f] += op.size
			plan.repBytes += op.size
		}
	}
	plan.maxRecv = busiest(recv)
	c.pendingRebalances.Add(1)
	return plan, nil
}

// busiest returns the largest single receiver's volume — Eq 7's floor on
// the effective wire volume.
func busiest(recv map[partition.NodeID]int64) int64 {
	var most int64
	for _, b := range recv {
		most = max(most, b)
	}
	return most
}

// executeRecoveries applies a plan's recovery ops: promote surviving
// secondaries into primaries and commit each chunk's revised secondary
// set, returning the re-replication fills for the caller to ship from each
// surviving host. Each committed promotion and catalog revision is logged
// in undo; a failed store write returns with the failed step itself
// already undone. Caller holds admin exclusive.
func (c *Cluster) executeRecoveries(plan *RebalancePlan, undo *undoLog) ([]replicaCopy, error) {
	var fills []replicaCopy
	for _, op := range plan.recovers {
		key := op.ref.Packed()
		host := c.nodes[op.host]
		var payload *array.Chunk
		if op.promote {
			ch, ok := host.takeReplica(key)
			if !ok {
				return nil, fmt.Errorf("cluster: recovery of %s: surviving replica vanished from node %d", op.ref, op.host)
			}
			if err := c.putWithRetry(host, ch); err != nil {
				host.putReplica(ch)
				return nil, err
			}
			c.owner.Set(key, op.host)
			undo.push(func() {
				if ch, err := host.take(op.ref); err == nil {
					host.putReplica(ch)
				}
				c.owner.Set(key, op.oldOwner)
			})
			payload = ch
		} else {
			payload, _ = host.Chunk(op.ref)
			if payload == nil {
				return nil, fmt.Errorf("cluster: re-replication of %s: primary vanished from node %d", op.ref, op.host)
			}
		}
		for _, f := range op.fill {
			fills = append(fills, replicaCopy{op.host, f, payload})
		}
		c.owner.SetReplicas(key, op.reps)
		undo.push(func() { c.owner.SetReplicas(key, op.oldReps) })
	}
	return fills, nil
}

// fixupMovedReplicas re-derives the secondary set of every moved chunk
// against its new primary (no-op at replication factor 1): a move onto a
// node that held a secondary would otherwise leave the primary shadowing
// itself. It returns the copies it placed, for the Eq 7 charge. Caller
// holds admin exclusive, post-commit.
func (c *Cluster) fixupMovedReplicas(plan *RebalancePlan, undo *undoLog) []replicaCopy {
	if c.replication <= 1 {
		return nil
	}
	healthy := c.HealthyNodes()
	want := c.requiredSecondaries()
	var copies []replicaCopy
	for _, m := range plan.moves {
		ch, _ := c.nodes[m.To].Chunk(m.Ref)
		copies = append(copies, c.respread(ch, m.To, healthy, want, undo)...)
	}
	// The one replica write that bypasses shipReplicas: fix-ups land in
	// place, charged but not shipped. Shipping them over TCP on the
	// elastic_cycle bench (2 hardware threads) raised
	// cluster.execute_rebalance_ms_p50 from 14.7 to 20.7 ms and
	// driver.reorg_ms_p99 from 35 to 46 ms, allocated ~20 MB more per pass,
	// and still left cluster.wire_pred_eq_meas at 0, because the plan-time
	// prediction does not include them.
	for _, cp := range copies {
		c.nodes[cp.to].putReplica(cp.ch)
	}
	return copies
}

// putWithRetry writes a chunk into a node's store, absorbing transient
// faults: up to c.transferRetries total attempts with exponential backoff
// from c.transferBackoff. A fault that persists through every attempt is
// returned for the caller's atomic rollback to handle.
func (c *Cluster) putWithRetry(n *Node, ch *array.Chunk) error {
	return c.withRetry(func() (bool, error) { return true, n.put(ch) })
}

// withRetry is the one transfer retry loop: it runs attempt up to
// c.transferRetries times, backing off exponentially from
// c.transferBackoff, until it succeeds or reports its failure not worth
// retrying.
func (c *Cluster) withRetry(attempt func() (retryable bool, err error)) error {
	var err error
	for n := 0; n < c.transferRetries; n++ {
		if n > 0 {
			time.Sleep(c.transferBackoff << (n - 1))
		}
		var retryable bool
		if retryable, err = attempt(); err == nil || !retryable {
			break
		}
	}
	return err
}

// buildRebalancePlan validates moves against the catalog, the stores and
// the schema registry, and groups them per receiving node. Caller holds
// admin exclusive.
func (c *Cluster) buildRebalancePlan(moves []partition.Move, added []partition.NodeID) (*RebalancePlan, error) {
	plan := &RebalancePlan{
		c:     c,
		moves: append([]partition.Move(nil), moves...),
		added: added,
		epoch: c.epoch.Load(),
	}
	byNode := make(map[partition.NodeID]int)
	seen := make(map[array.ChunkKey]bool, len(moves))
	for i, m := range plan.moves {
		key := m.Ref.Packed()
		cur, ok := c.owner.Get(key)
		if !ok {
			return nil, fmt.Errorf("cluster: plan moves unknown chunk %s", m.Ref)
		}
		if cur != m.From {
			return nil, fmt.Errorf("cluster: plan says %s on node %d, catalog says %d", m.Ref, m.From, cur)
		}
		if seen[key] {
			return nil, fmt.Errorf("cluster: chunk %s moved twice in one plan", m.Ref)
		}
		seen[key] = true
		src, ok := c.nodes[m.From]
		if !ok {
			return nil, fmt.Errorf("cluster: plan source node %d unknown", m.From)
		}
		if src.Health() == NodeDown {
			return nil, fmt.Errorf("cluster: plan moves %s off down node %d (use PlanRecover)", m.Ref, m.From)
		}
		dst, ok := c.nodes[m.To]
		if !ok {
			return nil, fmt.Errorf("cluster: plan target node %d unknown", m.To)
		}
		if dst.Health() == NodeDown {
			return nil, fmt.Errorf("cluster: plan moves %s onto down node %d", m.Ref, m.To)
		}
		if _, ok := c.schemas[m.Ref.Array]; !ok {
			return nil, fmt.Errorf("cluster: chunk %s of undefined array", m.Ref)
		}
		// A catalogued chunk whose source store does not hold it is a
		// reserved-but-unstored ingest reservation: moving it would ship
		// a payload that does not exist yet.
		if _, held := src.Chunk(m.Ref); !held {
			return nil, fmt.Errorf("cluster: plan moves chunk %s reserved by an outstanding ingest plan", m.Ref)
		}
		gi, ok := byNode[m.To]
		if !ok {
			gi = len(plan.groups)
			byNode[m.To] = gi
			plan.groups = append(plan.groups, receiverGroup{node: m.To})
		}
		g := &plan.groups[gi]
		g.idx = append(g.idx, i)
		g.bytes += m.Size
		plan.totalBytes += m.Size
	}
	sort.Slice(plan.groups, func(i, j int) bool { return plan.groups[i].node < plan.groups[j].node })
	// Predicted receiver volumes, keyed by node (the byNode group indexes
	// are stale after the sort): the moved batches, plus the
	// replicated-array chunks healthy nodes lack — for scale-out plans, the
	// whole set on each new node.
	recv := make(map[partition.NodeID]int64, len(plan.groups))
	for _, g := range plan.groups {
		recv[g.node] = g.bytes
	}
	plan.repBytes = foldCopies(recv, c.replicatedGaps())
	plan.maxRecv = busiest(recv)
	c.pendingRebalances.Add(1)
	return plan, nil
}

// ExecuteRebalance performs a plan's transfers — each receiver's chunks
// shipped as one batch push over the cluster transport, receivers in
// parallel for plans wide enough to pay for the fan-out — and returns the
// simulated reorganization duration. A plan executes at most once, and
// execution is atomic: on any store or transport error that outlasts the
// retry budget every chunk is returned to its source and the catalog is
// restored.
func (c *Cluster) ExecuteRebalance(plan *RebalancePlan) (Duration, error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	return c.executeRebalance(plan)
}

// executeRebalance is the execution phase. Caller holds admin exclusive.
func (c *Cluster) executeRebalance(plan *RebalancePlan) (Duration, error) {
	if plan == nil {
		return 0, fmt.Errorf("cluster: nil rebalance plan")
	}
	if plan.c != c {
		return 0, fmt.Errorf("cluster: rebalance plan belongs to another cluster")
	}
	if plan.epoch != c.epoch.Load() {
		// Another rebalance committed since planning; the validated
		// placement snapshot is stale. Release the plan so the caller can
		// replan against the current catalog.
		plan.Discard()
		return 0, ErrStalePlan
	}
	if !plan.state.CompareAndSwap(planStatePlanned, planStateExecuted) {
		return 0, fmt.Errorf("cluster: rebalance plan already executed or discarded")
	}
	start := time.Now()
	if len(plan.moves) > 0 || len(plan.recovers) > 0 {
		// Placement moves under any outstanding ingest plan: stale it.
		// (Ahead of execution on purpose — conservative on failure.)
		c.epoch.Add(1)
	}
	// frames accumulates what the transport reports crossed the wire.
	var frames int64
	// Every committed step below logs its inverse; fail unwinds them all,
	// so a failed rebalance leaves the cluster exactly as it was.
	var undo undoLog
	fail := func(err error) (Duration, error) {
		undo.unwind()
		c.pendingRebalances.Add(-1)
		return 0, err
	}
	if err := c.shipReceiverBatches(plan, &frames, &undo); err != nil {
		return fail(err)
	}
	fills, err := c.executeRecoveries(plan, &undo)
	if err != nil {
		return fail(err)
	}
	// One replica shipment: the replicated-array chunks healthy nodes lack
	// (the whole set on nodes the plan added), then the recovery fills.
	copies := append(c.replicatedGaps(), fills...)
	wire, err := c.shipReplicas(copies, &undo)
	frames += wire
	if err != nil {
		return fail(err)
	}
	// At R >= 2 a committed move leaves the chunk's secondary set computed
	// against the old primary; re-derive it against the new one so a
	// secondary never shadows its own primary.
	copies = append(copies, c.fixupMovedReplicas(plan, &undo)...)
	c.pendingRebalances.Add(-1)
	// Every move is committed — sources emptied, receivers stored, catalog
	// final — so the placement feed can see the relocations (and promoted
	// primaries re-enter it as adds on their new owner). A failed shipment
	// rolled everything back above and publishes nothing.
	if c.feedActive() && (len(plan.moves) > 0 || len(plan.recovers) > 0) {
		events := make([]PlacementEvent, 0, len(plan.moves)+len(plan.recovers))
		for _, m := range plan.moves {
			events = append(events, PlacementEvent{Kind: PlacementMove, Key: m.Ref.Packed(), Node: m.To, From: m.From, Size: m.Size})
		}
		for _, op := range plan.recovers {
			if !op.promote {
				continue
			}
			events = append(events, PlacementEvent{Kind: PlacementAdd, Key: op.ref.Packed(), Node: op.host, Size: op.size})
		}
		c.publishPlacement(events)
	}
	// Receivers pull in parallel up to the fabric width (Eq 7). The
	// replica volumes are folded from what was actually copied, so the
	// charge stays honest even if the replica set changed since planning;
	// with an unchanged set this equals PredictedDuration by construction
	// (shared formula).
	recv := make(map[partition.NodeID]int64, len(plan.groups))
	for _, g := range plan.groups {
		recv[g.node] = g.bytes
	}
	repBytes := foldCopies(recv, copies)
	maxRecv := busiest(recv)
	// Measured outcome: the same Eq 7 fold the charge below uses (so the
	// measured wire bytes equal WireBytes() whenever the replica set held),
	// the transport's frame count, and the wall clock.
	plan.measuredWire = c.rebalanceWire(plan.totalBytes, repBytes, maxRecv)
	plan.frameBytes = frames
	plan.measuredDur = time.Since(start)
	c.announceAll()
	return c.rebalanceCharge(plan.totalBytes, repBytes, maxRecv, len(plan.added) > 0), nil
}

// parallelRebalanceThreshold is the plan width (in moves) below which
// per-receiver fan-out goroutines cost more than they save.
const parallelRebalanceThreshold = 8

// shipReceiverBatches moves every group's chunks: take them from their
// sources, ship them to the receiver as one streaming KindRebalance push —
// receiver-atomic, retried whole against transient wire faults
// (pushWithRetry), the receiver's store writes retrying transient store
// faults (putWithRetry) — and recatalog them. Groups ship in parallel when
// the plan is wide enough, each logging its inverses privately; the logs
// are merged into undo after the barrier, so on any persistent error the
// caller's unwind returns every taken or delivered chunk to its source and
// restores the catalog. Frame bytes that crossed the wire accumulate into
// *frames.
func (c *Cluster) shipReceiverBatches(plan *RebalancePlan, frames *int64, undo *undoLog) error {
	type progress struct {
		undo undoLog
		wire int64 // transport frame bytes, failed attempts included
		err  error
	}
	progs := make([]progress, len(plan.groups))
	coord := c.Coordinator()
	ship := func(gi int) {
		g, p := plan.groups[gi], &progs[gi]
		// The originals taken so far go back to their sources: logged
		// ahead of the loop so a take failing midway returns its prefix.
		taken := make([]*array.Chunk, 0, len(g.idx))
		p.undo.push(func() {
			for k, ch := range taken {
				_ = c.nodes[plan.moves[g.idx[k]].From].put(ch)
			}
		})
		for _, i := range g.idx {
			m := plan.moves[i]
			ch, err := c.nodes[m.From].take(m.Ref)
			if err != nil {
				p.err = err
				return
			}
			taken = append(taken, ch)
		}
		p.wire, p.err = c.pushWithRetry(coord, g.node, transport.KindRebalance, taken)
		if p.err != nil {
			p.err = fmt.Errorf("cluster: batch for node %d: %w", g.node, p.err)
			return
		}
		for _, i := range g.idx {
			c.owner.Set(plan.moves[i].Ref.Packed(), g.node)
		}
		p.undo.push(func() {
			for _, i := range g.idx {
				m := plan.moves[i]
				_, _ = c.nodes[g.node].take(m.Ref)
				c.owner.Set(m.Ref.Packed(), m.From)
			}
		})
	}
	if len(plan.groups) <= 1 || len(plan.moves) < parallelRebalanceThreshold || runtime.GOMAXPROCS(0) == 1 {
		for gi := range plan.groups {
			ship(gi)
			if progs[gi].err != nil {
				break
			}
		}
	} else {
		// Groups are disjoint by construction (a chunk moves at most once
		// per plan), so receivers only share the locked stores and the
		// sharded catalog.
		var wg sync.WaitGroup
		for gi := range plan.groups {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				ship(gi)
			}(gi)
		}
		wg.Wait()
	}
	var err error
	for gi := range progs {
		*undo = append(*undo, progs[gi].undo...)
		*frames += progs[gi].wire
		if err == nil {
			err = progs[gi].err
		}
	}
	return err
}
