package cluster

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// nodeService is one node's transport endpoint: the receiver half of every
// data path the cluster routes over the wire. Its Deliver is
// receiver-atomic — a batch commits all-or-nothing, unwinding any stored
// prefix on a torn stream or a store fault — which is what makes the
// sender's whole-batch retry (pushWithRetry) safe: a failed push is
// guaranteed to have left nothing behind.
type nodeService struct {
	c    *Cluster
	node *Node
}

// deliverPrealloc caps the chunk slots a delivery reserves from its
// declared count: a batch of up to 4096 chunks gets its exact slice, and
// one that only claims to be larger reserves 32 KiB of pointers and grows
// as its chunks actually arrive.
const deliverPrealloc = 4096

// Deliver implements transport.Handler. Ingest and rebalance batches go to
// the partitioned store (rebalance writes absorb transient store faults via
// putWithRetry); replica batches go to the node's replica map. Chunks are
// consumed one at a time off the stream, so a socket-backed delivery holds
// O(one chunk) beyond the connection's read buffer. n is the sender's
// word, so the bookkeeping slices are sized from it only up to
// deliverPrealloc and grow by append past that.
func (s *nodeService) Deliver(from partition.NodeID, kind transport.BatchKind, n int, next func() (*array.Chunk, error)) error {
	switch kind {
	case transport.KindIngest, transport.KindRebalance:
		// The stored prefix is tracked by pointer (a ChunkRef is five
		// times the size); refs are derived only to unwind a torn batch.
		delivered := make([]*array.Chunk, 0, min(n, deliverPrealloc))
		unwind := func() {
			for _, ch := range delivered {
				_, _ = s.node.take(ch.Ref())
			}
		}
		for i := 0; i < n; i++ {
			ch, err := next()
			if err != nil {
				unwind()
				return err
			}
			if kind == transport.KindRebalance {
				err = s.c.putWithRetry(s.node, ch)
			} else {
				err = s.node.put(ch)
			}
			if err != nil {
				unwind()
				return err
			}
			delivered = append(delivered, ch)
		}
		return nil
	case transport.KindReplica:
		// Replica placement may overwrite an existing copy, so stage the
		// whole batch before committing: a torn stream must not have
		// half-replaced anything.
		staged := make([]*array.Chunk, 0, min(n, deliverPrealloc))
		for i := 0; i < n; i++ {
			ch, err := next()
			if err != nil {
				return err
			}
			staged = append(staged, ch)
		}
		for _, ch := range staged {
			s.node.putReplica(ch)
		}
		return nil
	}
	return fmt.Errorf("cluster: node %d: unknown batch kind %d", s.node.ID, kind)
}

// Fetch implements transport.Handler: the primary store first, the replica
// map second — the same serving order the query layer's failover uses.
func (s *nodeService) Fetch(ref array.ChunkRef) (*array.Chunk, error) {
	if ch, ok := s.node.Chunk(ref); ok {
		return ch, nil
	}
	if ch, ok := s.node.Replica(ref); ok {
		return ch, nil
	}
	return nil, fmt.Errorf("cluster: node %d does not hold %s", s.node.ID, ref)
}

// Announce implements transport.Handler: hand the sender's self-reported
// holdings to the registered sink (see Cluster.annSink).
func (s *nodeService) Announce(from partition.NodeID, a transport.Announcement) error {
	s.c.annMu.Lock()
	sink := s.c.annSink
	s.c.annMu.Unlock()
	if sink != nil {
		sink(a)
	}
	return nil
}

// Schema implements transport.Handler, resolving decode schemas from the
// cluster registry (safe concurrently with DefineArray).
func (s *nodeService) Schema(name string) (*array.Schema, bool) {
	return s.c.Schema(name)
}

// WireReads reports whether chunk reads between distinct nodes cross a
// real wire — the transport is remote (TCP). The query layer gates its wire
// re-fetches on this: in process (the loopback transport), cross-node reads
// stay pointer reads.
func (c *Cluster) WireReads() bool {
	return c.transport.Remote()
}

// FetchChunk pulls the named chunk from holder over the transport on
// behalf of reader, returning the decoded copy — byte-identical to the
// holder's resident chunk. Callers gate on WireReads.
func (c *Cluster) FetchChunk(reader, holder partition.NodeID, ref array.ChunkRef) (*array.Chunk, error) {
	ch, _, err := c.transport.FetchChunk(reader, holder, ref)
	return ch, err
}

// SetAnnouncementSink registers fn to observe every announcement the
// coordinator receives — the failure detector's heartbeat feed. One sink at
// a time; nil unregisters. The sink may be invoked from transport handler
// goroutines and from announcement paths holding the admin lock, so it must
// be fast and must never call back into cluster methods that take locks
// (record the observation, hand it to another goroutine to act on).
func (c *Cluster) SetAnnouncementSink(fn func(transport.Announcement)) {
	c.annMu.Lock()
	c.annSink = fn
	c.annMu.Unlock()
}

// announceAll has every healthy non-coordinator node report its holdings
// to the coordinator — called after topology-changing administration
// (rebalance commit, node failure, node recovery). Best-effort: an
// announcement lost to an injected fault is advisory state, not catalog
// truth, so errors are not propagated. Caller holds admin exclusive.
func (c *Cluster) announceAll() {
	coord := c.Coordinator()
	for _, id := range c.order[1:] {
		if node := c.nodes[id]; node.Health() != NodeDown {
			c.announce(node, coord)
		}
	}
}

// announce sends one node's current holdings, stamped with its next
// heartbeat sequence number, to the coordinator. Lock-free and best-effort.
func (c *Cluster) announce(node *Node, coord partition.NodeID) {
	_ = c.transport.Announce(node.ID, coord, transport.Announcement{
		Node:         node.ID,
		Health:       int32(node.Health()),
		Chunks:       int64(node.NumChunks()),
		Bytes:        node.Bytes(),
		Replicas:     int64(node.NumReplicas()),
		ReplicaBytes: node.ReplicaBytes(),
		Epoch:        c.epoch.Load(),
		Seq:          node.hbSeq.Add(1),
	})
}

// pushWithRetry ships one receiver's batch over the transport, absorbing
// transient faults — dropped connections, torn streams — with the same
// attempt/backoff budget putWithRetry gives store faults. Delivery is
// receiver-atomic, so re-pushing the whole batch after a transient failure
// cannot double-apply. A non-transient error (the remote handler refused
// the batch) returns immediately. The returned bytes are the cumulative
// frame volume that actually crossed the wire, failed attempts included.
func (c *Cluster) pushWithRetry(from, to partition.NodeID, kind transport.BatchKind, chunks []*array.Chunk) (int64, error) {
	var wire int64
	err := c.withRetry(func() (bool, error) {
		n, err := c.transport.PushChunks(from, to, kind, chunks)
		wire += n
		return transport.IsTransient(err), err
	})
	return wire, err
}

// Close releases the cluster's transport endpoints (listeners, pooled
// connections) and ends the cluster: every data path crosses the
// transport, so a closed cluster — in process or not — accepts no writes.
func (c *Cluster) Close() error {
	return c.transport.Close()
}
