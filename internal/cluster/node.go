package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/partition"
)

// NodeHealth is a node's availability state in the failure lifecycle.
type NodeHealth int32

const (
	// NodeHealthy: the node serves reads and accepts placements.
	NodeHealthy NodeHealth = iota
	// NodeDown: the node is unreachable. Planning routes around it,
	// queries fail chunk reads over to surviving replicas, and Validate
	// reports any primary still catalogued to it as degraded.
	NodeDown
	// NodeSuspect: the failure detector has lost heartbeats past the
	// suspect threshold but not yet the down threshold. A suspect node
	// still serves and accepts placements — suspicion is advisory until
	// the detector's Down verdict makes the supervisor call FailNode —
	// but Validate reports it so drills can assert the intermediate
	// state.
	NodeSuspect
)

func (h NodeHealth) String() string {
	switch h {
	case NodeDown:
		return "down"
	case NodeSuspect:
		return "suspect"
	}
	return "healthy"
}

// Node is one shared-nothing host: a chunk store with a storage capacity.
// Payloads are held decoded (and mirrored to disk when the cluster is
// configured with a storage directory); sizes are accounted with the same
// array.Chunk.SizeBytes the partitioners see.
type Node struct {
	ID       partition.NodeID
	Capacity int64

	store ChunkStore
	// health is written only under the cluster's admin-exclusive lock
	// (FailNode/RecoverNode/MarkNodeSuspect); atomic so lock-free
	// readers — the query layer's failover checks — observe it without
	// the admin lock.
	health atomic.Int32
	// hbSeq is the node's monotonic heartbeat sequence counter, stamped
	// into every Announcement it emits so the coordinator's failure
	// detector can tell fresh beats from stale redeliveries. Atomic: the
	// heartbeat loop increments it lock-free.
	hbSeq atomic.Uint64
	// repMu guards replicas and repBytes. The map holds both fully
	// replicated arrays (present on every node) and, at replication
	// factor >= 2, the node's assigned secondary copies of primary
	// chunks; both are excluded from partitioned storage accounting.
	// Concurrent ingest executions write secondaries under the shared
	// admin lock, so unlike health a plain mutex is required.
	repMu    sync.RWMutex
	replicas map[array.ChunkKey]*array.Chunk
	repBytes int64
}

func newNode(id partition.NodeID, capacity int64, store ChunkStore) *Node {
	if store == nil {
		store = NewMemStore()
	}
	return &Node{
		ID:       id,
		Capacity: capacity,
		store:    store,
		replicas: make(map[array.ChunkKey]*array.Chunk),
	}
}

// Health returns the node's availability state. Safe to read lock-free;
// transitions happen only through Cluster.FailNode / Cluster.RecoverNode.
func (n *Node) Health() NodeHealth { return NodeHealth(n.health.Load()) }

func (n *Node) setHealth(h NodeHealth) { n.health.Store(int32(h)) }

// Bytes returns the partitioned storage footprint of the node.
func (n *Node) Bytes() int64 { return n.store.Bytes() }

// ReplicaBytes returns the footprint of replica payloads on the node:
// fully replicated arrays plus assigned secondary copies of primaries.
func (n *Node) ReplicaBytes() int64 {
	n.repMu.RLock()
	defer n.repMu.RUnlock()
	return n.repBytes
}

// NumChunks returns the number of partitioned chunks resident.
func (n *Node) NumChunks() int { return n.store.Len() }

func (n *Node) put(c *array.Chunk) error {
	if err := n.store.Put(c); err != nil {
		return fmt.Errorf("cluster: node %d: %w", n.ID, err)
	}
	return nil
}

func (n *Node) take(ref array.ChunkRef) (*array.Chunk, error) {
	c, err := n.store.Take(ref)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", n.ID, err)
	}
	return c, nil
}

// Chunk returns the resident partitioned chunk with the given identity.
func (n *Node) Chunk(ref array.ChunkRef) (*array.Chunk, bool) { return n.store.Get(ref) }

// Replica returns the resident replica chunk with the given identity —
// a fully replicated array's copy or an assigned secondary of a primary.
func (n *Node) Replica(ref array.ChunkRef) (*array.Chunk, bool) {
	n.repMu.RLock()
	c, ok := n.replicas[ref.Packed()]
	n.repMu.RUnlock()
	return c, ok
}

func (n *Node) putReplica(c *array.Chunk) {
	key := c.Key()
	n.repMu.Lock()
	if old, ok := n.replicas[key]; ok {
		n.repBytes -= old.SizeBytes()
	}
	n.replicas[key] = c
	n.repBytes += c.SizeBytes()
	n.repMu.Unlock()
}

// takeReplica removes and returns a replica payload, reporting whether it
// was present.
func (n *Node) takeReplica(key array.ChunkKey) (*array.Chunk, bool) {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	c, ok := n.replicas[key]
	if !ok {
		return nil, false
	}
	delete(n.replicas, key)
	n.repBytes -= c.SizeBytes()
	return c, true
}

// NumReplicas returns the number of replica payloads resident.
func (n *Node) NumReplicas() int {
	n.repMu.RLock()
	defer n.repMu.RUnlock()
	return len(n.replicas)
}

// Chunks returns the node's partitioned chunks in canonical order.
func (n *Node) Chunks() []*array.Chunk {
	refs := n.store.Refs()
	out := make([]*array.Chunk, 0, len(refs))
	for _, ref := range refs {
		if c, ok := n.store.Get(ref); ok {
			out = append(out, c)
		}
	}
	return out
}

// Replicas returns the node's replica chunks in canonical order.
func (n *Node) Replicas() []*array.Chunk {
	n.repMu.RLock()
	defer n.repMu.RUnlock()
	keys := make([]array.ChunkKey, 0, len(n.replicas))
	for k := range n.replicas {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]*array.Chunk, 0, len(keys))
	for _, k := range keys {
		out = append(out, n.replicas[k])
	}
	return out
}

// ChunkInfos returns placement metadata for the node's partitioned chunks
// in canonical order.
func (n *Node) ChunkInfos() []array.ChunkInfo {
	cs := n.Chunks()
	out := make([]array.ChunkInfo, len(cs))
	for i, c := range cs {
		out[i] = array.ChunkInfo{Ref: c.Ref(), Size: c.SizeBytes()}
	}
	return out
}
