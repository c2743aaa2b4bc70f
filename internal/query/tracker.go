package query

import (
	"fmt"
	"sync"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// Result is the outcome of one operator execution.
type Result struct {
	// Elapsed is the operator's simulated latency.
	Elapsed cluster.Duration
	// Cells is the operator-specific result cardinality.
	Cells int64
	// Value is an operator-specific scalar (a quantile, a mean NDVI, a
	// mean k-NN distance, …) so tests can check real computation
	// happened.
	Value float64
	// BytesScanned and BytesShuffled expose the cost breakdown.
	BytesScanned  int64
	BytesShuffled int64
}

// Tracker accumulates the per-node and network charges of one operator.
// It is safe for concurrent use: IO, CPU and Net may be called from any
// number of goroutines. The scan executor (Exec) avoids paying that lock
// per chunk by giving each worker a private shard and merging once at the
// barrier; direct concurrent use is supported for operators that manage
// their own goroutines.
//
// All charges are integer byte/cell counts, so the accumulated totals are
// independent of arrival order — which is what lets a parallel scan report
// exactly the per-node charges of the serial one.
type Tracker struct {
	c *cluster.Cluster

	mu  sync.Mutex
	io  map[partition.NodeID]int64
	cpu map[partition.NodeID]int64
	net int64
}

// NewTracker starts an empty account against the cluster's cost model.
func NewTracker(c *cluster.Cluster) *Tracker {
	return &Tracker{
		c:   c,
		io:  make(map[partition.NodeID]int64),
		cpu: make(map[partition.NodeID]int64),
	}
}

// shard starts an empty worker-private account against the same cluster,
// to be folded back with merge.
func (t *Tracker) shard() *Tracker { return NewTracker(t.c) }

// merge folds a worker shard's charges into t. The shard must be quiescent
// (its worker done); t may be merged into concurrently.
func (t *Tracker) merge(s *Tracker) {
	t.mu.Lock()
	for id, n := range s.io {
		t.io[id] += n
	}
	for id, n := range s.cpu {
		t.cpu[id] += n
	}
	t.net += s.net
	t.mu.Unlock()
}

// IO charges a disk scan of n bytes on the node.
func (t *Tracker) IO(node partition.NodeID, n int64) {
	t.mu.Lock()
	t.io[node] += n
	t.mu.Unlock()
}

// CPU charges processing of n cells on the node.
func (t *Tracker) CPU(node partition.NodeID, n int64) {
	t.mu.Lock()
	t.cpu[node] += n
	t.mu.Unlock()
}

// Net charges a transfer of n bytes across the fabric.
func (t *Tracker) Net(n int64) {
	t.mu.Lock()
	t.net += n
	t.mu.Unlock()
}

// BytesScanned returns the total disk bytes charged so far.
func (t *Tracker) BytesScanned() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, n := range t.io {
		total += n
	}
	return total
}

// NodeCPU returns the cells charged to the node so far.
func (t *Tracker) NodeCPU(node partition.NodeID) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cpu[node]
}

// Elapsed folds the account into simulated time: nodes work in parallel
// (the slowest one gates the operator), the network is charged serially,
// and every operator pays the fixed coordination overhead.
func (t *Tracker) Elapsed() cluster.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.c.Cost()
	var worst cluster.Duration
	for _, id := range t.c.Nodes() {
		d := m.DiskTime(t.io[id]) + m.CPUTime(t.cpu[id])
		if d > worst {
			worst = d
		}
	}
	return worst + m.NetTime(t.net) + cluster.Duration(m.QueryOverheadSec)
}

// Finish assembles a Result.
func (t *Tracker) Finish(cells int64, value float64) Result {
	return Result{
		Elapsed:       t.Elapsed(),
		Cells:         cells,
		Value:         value,
		BytesScanned:  t.BytesScanned(),
		BytesShuffled: t.netTotal(),
	}
}

func (t *Tracker) netTotal() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.net
}

// attrIndexes resolves attribute names to schema positions.
func attrIndexes(s *array.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, name := range names {
		idx := s.AttrIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("query: array %s has no attribute %q", s.Name, name)
		}
		out[i] = idx
	}
	return out, nil
}

// schemaOf fetches a registered schema or errors.
func schemaOf(c *cluster.Cluster, name string) (*array.Schema, error) {
	s, ok := c.Schema(name)
	if !ok {
		return nil, fmt.Errorf("query: array %q not defined on this cluster", name)
	}
	return s, nil
}

// chunksOfArray returns the node's resident chunks belonging to the array,
// in canonical order.
func chunksOfArray(n *cluster.Node, arrayName string) []*array.Chunk {
	var out []*array.Chunk
	for _, ch := range n.Chunks() {
		if ch.Schema.Name == arrayName {
			out = append(out, ch)
		}
	}
	return out
}
