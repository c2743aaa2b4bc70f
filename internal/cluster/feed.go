package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/partition"
)

// The placement change feed publishes what the two execution choke points
// committed — chunks added by ExecutePlan, chunks moved by
// ExecuteRebalance — as generation-stamped event batches, so observers
// such as the co-access advisor's continuous graph (advisor.Live) can
// maintain derived state incrementally instead of re-walking the cluster.
//
// The contract, in order of importance:
//
//   - Events describe only COMMITTED placement. A batch is published after
//     the all-or-nothing execution phase has succeeded, so a rolled-back
//     ingest or rebalance, a discarded plan, or a reservation released by
//     epoch staleness never produces an event — rollback cannot leak
//     phantom placements into a subscriber's view.
//   - Each published batch carries the feed generation it advanced the
//     cluster to. PlacementGen returns the generation of the last
//     published batch; a subscriber whose own generation matches it holds
//     a view that includes every committed change. Batches from
//     concurrent ingest executions are serialised by the feed (their
//     chunk sets are disjoint by catalog reservation, so the relative
//     order is immaterial).
//   - Delivery is synchronous, on the executing goroutine, while the
//     cluster's admin lock is held (shared for ingest, exclusive for
//     rebalance). Listeners must be fast, must not retain the event
//     slice past the call, and must not call back into cluster methods
//     that take the admin lock (PlanInsert, ExecutePlan, PlanMigrate,
//     Quiesce, …) — doing so deadlocks.
//
// The feed is free when unused: with no subscriber, execution skips event
// construction entirely and the generation never advances.

// PlacementEventKind classifies one placement change.
type PlacementEventKind uint8

const (
	// PlacementAdd: a new chunk was stored (ingest commit). Node is the
	// owner, Size its payload bytes.
	PlacementAdd PlacementEventKind = iota
	// PlacementMove: a stored chunk changed nodes (rebalance commit).
	// From is the previous owner, Node the new one.
	PlacementMove
	// PlacementRemove: a stored chunk left the serving placement. The
	// storage model is insert-only, so data is never deleted — but
	// FailNode emits a removal per primary chunk on the failed node so
	// derived-state consumers (advisor.Live) excise its edges; a later
	// PlanRecover promotion re-announces each surviving chunk with a
	// PlacementAdd on its new owner.
	PlacementRemove
)

// PlacementEvent is one committed placement change.
type PlacementEvent struct {
	Kind PlacementEventKind
	Key  array.ChunkKey
	// Node is the owner after the event (for PlacementRemove: the last
	// owner).
	Node partition.NodeID
	// From is the previous owner; meaningful for PlacementMove only.
	From partition.NodeID
	// Size is the chunk's payload bytes, carried on every kind so a
	// subscriber that missed the add can still reconstruct the chunk's
	// graph weight from a later move.
	Size int64
}

// PlacementListener receives one committed event batch and the feed
// generation it advances the cluster to. See the feed contract above for
// what a listener may and may not do.
type PlacementListener func(gen uint64, events []PlacementEvent)

// placementFeed is the cluster's change-feed state.
type placementFeed struct {
	// mu serialises publication: the generation advances and the batch is
	// delivered to every listener as one atomic step, so listeners see
	// batches in strictly increasing generation order.
	mu        sync.Mutex
	gen       atomic.Uint64
	listeners []PlacementListener
	// active lets the execution hot paths skip event construction with a
	// single atomic load when nobody subscribed.
	active atomic.Bool
}

// SubscribePlacement registers a listener for committed placement changes
// and returns the current feed generation; every batch published after
// the call (generation > the returned value) will be delivered.
// Subscriptions last for the life of the cluster.
func (c *Cluster) SubscribePlacement(fn PlacementListener) uint64 {
	c.feed.mu.Lock()
	defer c.feed.mu.Unlock()
	c.feed.listeners = append(c.feed.listeners, fn)
	c.feed.active.Store(true)
	return c.feed.gen.Load()
}

// PlacementGen returns the feed generation of the last committed placement
// change. A subscriber whose applied generation equals it is current
// (modulo batches still in flight on other goroutines, which publish
// before their execution call returns).
func (c *Cluster) PlacementGen() uint64 { return c.feed.gen.Load() }

// feedActive reports whether any listener is subscribed — the hot-path
// gate for skipping event construction.
func (c *Cluster) feedActive() bool { return c.feed.active.Load() }

// publishPlacement commits one event batch to the feed. Callers invoke it
// only after their execution phase has fully succeeded. Empty batches are
// dropped without advancing the generation.
//
// The generation is stored after delivery, so PlacementGen never runs
// ahead of what listeners have seen: a listener that applied every batch
// delivered to it is at or ahead of PlacementGen, which is what lets a
// consumer treat generation-match as "no rebuild needed" without a
// spurious miss in the delivery window. (Listeners may transiently be
// ahead; they are never behind a published generation.)
func (c *Cluster) publishPlacement(events []PlacementEvent) {
	if len(events) == 0 || !c.feed.active.Load() {
		return
	}
	c.feed.mu.Lock()
	defer c.feed.mu.Unlock()
	gen := c.feed.gen.Load() + 1
	for _, fn := range c.feed.listeners {
		fn(gen, events)
	}
	c.feed.gen.Store(gen)
}

// Quiesce runs fn while the cluster is administratively quiesced: no
// ingest or rebalance execution is in flight, no event batch is pending
// publication, and the placement, topology and feed generation are frozen
// for the duration of the call. It is the consistent-snapshot hook
// derived-state consumers rebuild from (advisor.Live falls back to it on
// first use or detected divergence). fn must not call cluster methods
// that take the admin lock — Insert, PlanInsert, ExecutePlan, ScaleOut,
// PlanScaleOut, PlanMigrate, ExecuteRebalance, Validate,
// ReplicateArray, DefineArray or Quiesce itself — which would deadlock;
// the read accessors (Nodes, Node, Schema, Owner, PlacementGen, …) are
// all safe.
func (c *Cluster) Quiesce(fn func()) {
	c.admin.Lock()
	defer c.admin.Unlock()
	fn()
}

// Epoch returns the topology/table revision counter. It advances when a
// scale-out is planned (new nodes join, the partitioner's table is
// revised) and when a rebalance executes; outstanding ingest and
// rebalance plans are pinned to the epoch they were computed under and go
// stale when it moves. Unlike PlacementGen it also moves for committed
// topology changes that relocate no chunks, so epoch+generation together
// identify everything the advisor's cached plans depend on.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }
