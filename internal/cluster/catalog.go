package cluster

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/array"
	"repro/internal/partition"
)

// ownerCatalog is the cluster's authoritative chunk→node catalog, sharded
// into a power-of-two number of lock-striped maps keyed by the packed
// ChunkKey hash. Sharding lets concurrent ingest batches reserve and
// publish ownership without contending on one map (and one lock), while a
// single-key lookup stays what it was with the flat map: hash, probe, no
// allocation.
type ownerCatalog struct {
	shards []ownerShard
	mask   uint64
}

type ownerShard struct {
	mu sync.RWMutex
	m  map[array.ChunkKey]partition.NodeID
	// sec records the secondary owners (replica holders) of primaries at
	// replication factor >= 2, lazily allocated so the R=1 hot path pays
	// nothing — Get never touches it.
	sec map[array.ChunkKey][]partition.NodeID
}

// newOwnerCatalog sizes the shard array to the first power of two at or
// above 4× the scheduler's parallelism, clamped to [8, 256] — enough
// stripes that parallel ingest goroutines rarely collide, few enough that
// aggregate scans (Len, Validate) stay cheap.
func newOwnerCatalog() *ownerCatalog {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) && n < 256 {
		n <<= 1
	}
	c := &ownerCatalog{shards: make([]ownerShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		// Presized so a typical ingest burst never rehashes mid-batch;
		// the catalog is cluster-lifetime state, the few KiB are paid
		// once.
		c.shards[i].m = make(map[array.ChunkKey]partition.NodeID, 64)
	}
	return c
}

// shard picks the stripe for a key. The FNV key hash mixes high bits well;
// folding them down spreads sequential coordinates across stripes even
// though only the low bits select the shard.
func (c *ownerCatalog) shard(key array.ChunkKey) *ownerShard {
	h := key.Hash()
	return &c.shards[(h^h>>32)&c.mask]
}

// Get returns the owner of a chunk. Allocation-free: hash, RLock, probe.
func (c *ownerCatalog) Get(key array.ChunkKey) (partition.NodeID, bool) {
	s := c.shard(key)
	s.mu.RLock()
	n, ok := s.m[key]
	s.mu.RUnlock()
	return n, ok
}

// Set records or overwrites the owner of a chunk.
func (c *ownerCatalog) Set(key array.ChunkKey, n partition.NodeID) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = n
	s.mu.Unlock()
}

// Reserve records the owner of a chunk unless the chunk is already
// catalogued, reporting whether the claim succeeded — the single locked
// operation ingest plans use to both duplicate-check against the catalog
// and claim the chunk.
func (c *ownerCatalog) Reserve(key array.ChunkKey, n partition.NodeID) bool {
	s := c.shard(key)
	s.mu.Lock()
	if _, dup := s.m[key]; dup {
		s.mu.Unlock()
		return false
	}
	s.m[key] = n
	s.mu.Unlock()
	return true
}

// Delete removes a chunk — and any recorded secondaries — from the catalog.
func (c *ownerCatalog) Delete(key array.ChunkKey) {
	s := c.shard(key)
	s.mu.Lock()
	delete(s.m, key)
	delete(s.sec, key)
	s.mu.Unlock()
}

// SetReplicas records the secondary owners of a chunk, replacing any prior
// set. An empty or nil set clears the entry.
func (c *ownerCatalog) SetReplicas(key array.ChunkKey, nodes []partition.NodeID) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(nodes) == 0 {
		delete(s.sec, key)
		return
	}
	if s.sec == nil {
		s.sec = make(map[array.ChunkKey][]partition.NodeID)
	}
	s.sec[key] = append([]partition.NodeID(nil), nodes...)
}

// Replicas returns a copy of the chunk's secondary owners (nil when the
// chunk has none — always the case at replication factor 1).
func (c *ownerCatalog) Replicas(key array.ChunkKey) []partition.NodeID {
	s := c.shard(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	nodes, ok := s.sec[key]
	if !ok {
		return nil
	}
	return append([]partition.NodeID(nil), nodes...)
}

// Each calls fn for every catalogued primary. Holds each shard's read lock
// for the duration of its scan; callers needing a stable snapshot run under
// the cluster's admin-exclusive lock.
func (c *ownerCatalog) Each(fn func(key array.ChunkKey, owner partition.NodeID)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, n := range s.m {
			fn(k, n)
		}
		s.mu.RUnlock()
	}
}

// EachReplica calls fn for every chunk with recorded secondary owners. The
// slice passed to fn is the shard's own; fn must not retain or mutate it.
func (c *ownerCatalog) EachReplica(fn func(key array.ChunkKey, nodes []partition.NodeID)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, nodes := range s.sec {
			fn(k, nodes)
		}
		s.mu.RUnlock()
	}
}

// repEntry is one chunk's recorded secondary owners.
type repEntry struct {
	key   array.ChunkKey
	nodes []partition.NodeID
}

// sortedReplicas snapshots every recorded secondary set, in canonical
// chunk order.
func (c *ownerCatalog) sortedReplicas() []repEntry {
	var entries []repEntry
	c.EachReplica(func(key array.ChunkKey, nodes []partition.NodeID) {
		entries = append(entries, repEntry{key, append([]partition.NodeID(nil), nodes...)})
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].key.Less(entries[j].key) })
	return entries
}

// Len returns the number of catalogued chunks.
func (c *ownerCatalog) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}
