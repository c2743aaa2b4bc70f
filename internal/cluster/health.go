package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/array"
	"repro/internal/partition"
)

// Failure lifecycle: FailNode marks a node Down, RecoverNode readmits it.
//
// A Down node keeps its catalog entries — the storage model is insert-only
// and recovery is exactly accountable, so nothing is silently dropped — but
// planning routes placements around it, queries fail chunk reads over to
// surviving replicas (see query.Exec), and Validate reports any primary
// still catalogued to it as degraded until PlanRecover/ExecuteRebalance
// restores ownership onto healthy nodes.
//
// Health transitions are administrative: they hold the admin lock
// exclusively, so they never race in-flight ingest or rebalance execution,
// and they bump the epoch so outstanding plans computed against the old
// health map go stale instead of executing onto a dead node.

// FailNode marks a node Down, simulating its loss. The node's chunk
// payloads become unreachable (the in-process store is kept solely so
// RecoverNode can model a node returning with stale state); its catalog
// entries remain, to be re-owned by PlanRecover. A removal event per
// primary chunk is published on the placement feed so derived state excises
// the node's edges. Failing the coordinator is out of scope and an error —
// the cluster always keeps at least one healthy node.
func (c *Cluster) FailNode(id partition.NodeID) error {
	c.admin.Lock()
	defer c.admin.Unlock()
	node, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("cluster: FailNode(%d): unknown node", id)
	}
	if id == c.order[0] {
		return fmt.Errorf("cluster: FailNode(%d): coordinator failover is out of scope", id)
	}
	if node.Health() == NodeDown {
		return fmt.Errorf("cluster: FailNode(%d): node already down", id)
	}
	events := c.residentEvents(node, PlacementRemove)
	node.setHealth(NodeDown)
	c.downCount.Add(1)
	// Stale any outstanding plan computed when the node was healthy: its
	// destinations may include the dead node.
	c.epoch.Add(1)
	c.publishPlacement(events)
	// The survivors report their holdings so the coordinator's announced
	// view reflects the new health map.
	c.announceAll()
	return nil
}

// residentEvents describes a node's resident primaries as placement feed
// events of one kind — removals when it fails, adds when it returns. Nil
// while the feed has no subscriber.
func (c *Cluster) residentEvents(node *Node, kind PlacementEventKind) []PlacementEvent {
	if !c.feedActive() {
		return nil
	}
	infos := node.ChunkInfos()
	events := make([]PlacementEvent, len(infos))
	for i, info := range infos {
		events[i] = PlacementEvent{Kind: kind, Key: info.Ref.Packed(), Node: node.ID, Size: info.Size}
	}
	return events
}

// RecoverNode readmits a Down node as an empty-handed rejoin: whatever the
// returning node holds that the catalog no longer credits to it is
// discarded (a chunk re-owned by PlanRecover while it was away), missing
// replicated-array chunks are backfilled, and secondary copies it is no
// longer assigned are dropped. Primaries left short of secondaries by a
// clamped degraded recovery are re-replicated now that the replication
// budget is wide enough again — no later plan revisits them, because
// PlanRecover demands a down node. The still-owned primaries the node
// returns with are re-announced on the placement feed. The charge is the
// network time of the replicated-array backfill plus the re-replication.
// Readmission is atomic: when a re-replication push fails for good, every
// step taken is undone and the node stays Down, so the call can be retried.
func (c *Cluster) RecoverNode(id partition.NodeID) (Duration, error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	node, ok := c.nodes[id]
	if !ok {
		return 0, fmt.Errorf("cluster: RecoverNode(%d): unknown node", id)
	}
	if node.Health() != NodeDown {
		return 0, fmt.Errorf("cluster: RecoverNode(%d): node is not down", id)
	}
	var undo undoLog
	// Drop primaries the catalog re-owned elsewhere while the node was away.
	var stale []*array.Chunk
	undo.push(func() {
		for _, ch := range stale {
			_ = node.put(ch)
		}
	})
	for _, info := range node.ChunkInfos() {
		owner, ok := c.owner.Get(info.Ref.Packed())
		if ok && owner == id {
			continue
		}
		ch, err := node.take(info.Ref)
		if err != nil {
			undo.unwind()
			return 0, fmt.Errorf("cluster: RecoverNode(%d): dropping stale chunk %s: %w", id, info.Ref, err)
		}
		stale = append(stale, ch)
	}
	// Drop replica payloads the node is no longer responsible for.
	var dropped []*array.Chunk
	for _, rep := range node.Replicas() {
		key := rep.Key()
		if c.repKeys[key] || slices.Contains(c.owner.Replicas(key), id) {
			continue
		}
		node.takeReplica(key)
		dropped = append(dropped, rep)
	}
	events := c.residentEvents(node, PlacementAdd)
	node.setHealth(NodeHealthy)
	c.downCount.Add(-1)
	undo.push(func() {
		node.setHealth(NodeDown)
		c.downCount.Add(1)
		for _, rep := range dropped {
			node.putReplica(rep)
		}
	})
	// Backfill the replicated arrays the node missed, and restore the
	// canonical replica spread now that the node is back. The spread
	// repairs two deficits in one sorted pass: primaries the clamped
	// degraded recovery left short of secondaries (requiredSecondaries
	// widens again), and the rejoined node's own share — rendezvous
	// hashing makes it the canonical holder of part of the secondary set,
	// and without reassignment here it would hold none until some later
	// rebalance. Everything ships in one shipReplicas call.
	copies := c.replicatedGaps()
	if want := c.requiredSecondaries(); want > 0 {
		healthy := c.HealthyNodes()
		var refs []array.ChunkRef
		c.owner.Each(func(key array.ChunkKey, _ partition.NodeID) {
			refs = append(refs, key.Ref())
		})
		sort.Slice(refs, func(i, j int) bool { return refs[i].Packed().Less(refs[j].Packed()) })
		for _, ref := range refs {
			key := ref.Packed()
			owner, ok := c.owner.Get(key)
			if !ok || c.repKeys[key] || c.nodes[owner].Health() == NodeDown {
				continue
			}
			primary, _ := c.nodes[owner].Chunk(ref)
			if primary == nil {
				continue // reserved by an outstanding ingest plan; nothing to copy yet
			}
			copies = append(copies, c.respread(primary, owner, healthy, want, &undo)...)
		}
	}
	if _, err := c.shipReplicas(copies, &undo); err != nil {
		undo.unwind()
		return 0, fmt.Errorf("cluster: RecoverNode(%d): re-replication: %w", id, err)
	}
	backfill := foldCopies(map[partition.NodeID]int64{}, copies)
	c.epoch.Add(1)
	c.publishPlacement(events)
	c.announceAll()
	return c.cost.NetTime(backfill), nil
}

// MarkNodeSuspect records the failure detector's intermediate verdict: the
// node's heartbeats went silent past the suspect threshold but the detector
// is not yet confident it is dead. A Suspect node still serves reads and
// accepts placements — the state is advisory, carries no epoch bump, and is
// reversed by ClearNodeSuspect when heartbeats resume (or superseded by
// FailNode when the detector's Down verdict lands). Idempotent on an
// already-suspect node; suspecting the coordinator or a Down node is an
// error.
func (c *Cluster) MarkNodeSuspect(id partition.NodeID) error {
	c.admin.Lock()
	defer c.admin.Unlock()
	node, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("cluster: MarkNodeSuspect(%d): unknown node", id)
	}
	if id == c.order[0] {
		return fmt.Errorf("cluster: MarkNodeSuspect(%d): the coordinator cannot be suspected", id)
	}
	switch node.Health() {
	case NodeSuspect:
		return nil
	case NodeDown:
		return fmt.Errorf("cluster: MarkNodeSuspect(%d): node is down", id)
	}
	node.setHealth(NodeSuspect)
	return nil
}

// ClearNodeSuspect lifts suspicion from a node whose heartbeats resumed.
// Idempotent on a healthy node; clearing a Down node is an error (that is
// RecoverNode's job).
func (c *Cluster) ClearNodeSuspect(id partition.NodeID) error {
	c.admin.Lock()
	defer c.admin.Unlock()
	node, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("cluster: ClearNodeSuspect(%d): unknown node", id)
	}
	switch node.Health() {
	case NodeHealthy:
		return nil
	case NodeDown:
		return fmt.Errorf("cluster: ClearNodeSuspect(%d): node is down, not suspect", id)
	}
	node.setHealth(NodeHealthy)
	return nil
}

// SuspectNodes returns the IDs of nodes currently under suspicion,
// ascending.
func (c *Cluster) SuspectNodes() []partition.NodeID {
	var out []partition.NodeID
	for _, id := range c.order {
		if c.nodes[id].Health() == NodeSuspect {
			out = append(out, id)
		}
	}
	return out
}

// Degraded reports whether any node is Down — one atomic load, the gate
// the query layer checks before paying for failover bookkeeping.
func (c *Cluster) Degraded() bool { return c.downCount.Load() > 0 }

// NodeHealthOf returns a node's health state.
func (c *Cluster) NodeHealthOf(id partition.NodeID) (NodeHealth, bool) {
	node, ok := c.nodes[id]
	if !ok {
		return NodeHealthy, false
	}
	return node.Health(), true
}

// HealthyNodes returns the IDs of nodes currently serving, ascending.
// Snapshot semantics match Nodes(): safe against ingest, not against
// concurrent topology or health administration.
func (c *Cluster) HealthyNodes() []partition.NodeID {
	out := make([]partition.NodeID, 0, len(c.order))
	for _, id := range c.order {
		if c.nodes[id].Health() == NodeDown {
			continue
		}
		out = append(out, id)
	}
	return out
}

// requiredSecondaries returns how many secondary copies each primary must
// have right now: R-1, clamped so a degraded cluster smaller than R is not
// asked for copies it cannot host on distinct healthy nodes.
func (c *Cluster) requiredSecondaries() int {
	want := c.replication
	if healthy := len(c.HealthyNodes()); want > healthy {
		want = healthy
	}
	return want - 1
}

// ReplicaHolders returns the catalogued secondary owners of a chunk —
// the nodes the query layer fails a read over to when the primary's node
// is Down. Nil at replication factor 1.
func (c *Cluster) ReplicaHolders(key array.ChunkKey) []partition.NodeID {
	return c.owner.Replicas(key)
}

// UnreachablePrimaries returns, for the named array, the refs of chunks
// catalogued to Down nodes, in canonical order — the chunks a degraded
// query must source from replicas (or report via ErrPartialResult).
func (c *Cluster) UnreachablePrimaries(arrayName string) []array.ChunkRef {
	var lost []array.ChunkRef
	c.owner.Each(func(key array.ChunkKey, owner partition.NodeID) {
		if node, ok := c.nodes[owner]; ok && node.Health() == NodeDown {
			if ref := key.Ref(); ref.Array == arrayName {
				lost = append(lost, ref)
			}
		}
	})
	sort.Slice(lost, func(i, j int) bool { return lost[i].Packed().Less(lost[j].Packed()) })
	return lost
}

// primariesOnDown returns the refs of chunks whose catalogued owner is
// Down, in canonical order — the chunks PlanRecover must re-own.
func (c *Cluster) primariesOnDown() []array.ChunkRef {
	var lost []array.ChunkRef
	c.owner.Each(func(key array.ChunkKey, owner partition.NodeID) {
		if node, ok := c.nodes[owner]; ok && node.Health() == NodeDown {
			lost = append(lost, key.Ref())
		}
	})
	sort.Slice(lost, func(i, j int) bool { return lost[i].Packed().Less(lost[j].Packed()) })
	return lost
}
