package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/transport"
)

// PartitionerFactory builds the cluster's placement scheme once the initial
// node IDs exist (the scheme's table is seeded from them).
type PartitionerFactory func(initial []partition.NodeID) (partition.Partitioner, error)

// Cluster is the elastic shared-nothing array database: a coordinator, a
// growing set of nodes, a partitioner, and the authoritative chunk catalog.
// It implements partition.State so the partitioner can consult placement.
//
// Scale-out is monotonic — the paper's databases never coalesce nodes —
// and data mutation is insert-only per the no-overwrite storage model.
//
// Ingest runs as a plan → execute pipeline (see PlanInsert) and is safe for
// concurrent use: any number of Insert/PlanInsert/ExecutePlan calls may run
// in parallel, with the plan phase serialised over the partitioner table
// and the execution phases interleaving against the sharded catalog and
// the locked node stores. Administration
// (DefineArray, ReplicateArray, the rebalance pipeline PlanScaleOut /
// PlanMigrate / ExecuteRebalance and its ScaleOut wrapper,
// Validate) is exclusive among itself and against ingest: it waits for
// in-flight ingest calls to drain and blocks new ones while it runs.
//
// The concurrency contract covers exactly that: ingest vs. ingest, ingest
// vs. administration, plus the lock-free readers Owner, NumChunks and
// Schema. The remaining read accessors (Nodes, Loads, Node, NodeChunks,
// TotalBytes, …) are snapshots for drivers and tests; callers must not
// race them against administration calls that mutate topology.
type Cluster struct {
	cost   CostModel
	part   partition.Partitioner
	nodes  map[partition.NodeID]*Node
	order  []partition.NodeID // ascending
	owner  *ownerCatalog
	nextID partition.NodeID

	// schemaMu is a leaf lock making Schema readable concurrently with
	// DefineArray (queries consult schemas while drivers set up arrays).
	// Writers additionally hold admin exclusive, so plan-phase reads of
	// the map under admin shared need no extra lock.
	schemaMu sync.RWMutex
	schemas  map[string]*array.Schema

	// admin is the ingest/administration phase lock: Insert, PlanInsert
	// and ExecutePlan hold it shared (so batches overlap each other);
	// topology and audit operations hold it exclusively (so they see —
	// and leave — a quiesced cluster).
	admin sync.RWMutex
	// planMu serialises the plan phase proper: the partitioner's table,
	// the schema registry reads and the scratch buffers below. Catalog
	// reservations happen under it, so two concurrent plans can never
	// claim the same chunk.
	planMu sync.Mutex
	// keyScratch, idxScratch and infoScratch are plan-phase working
	// buffers, reused across batches instead of reallocated per Insert
	// (guarded by planMu).
	keyScratch  []array.ChunkKey
	idxScratch  []int32
	infoScratch []array.ChunkInfo

	nodeCapacity int64
	storageDir   string
	// parallelism caps the query layer's scan-executor worker pool.
	// Atomic so benchmark sweeps can retune it between runs without
	// racing a straggling query's read.
	parallelism atomic.Int32
	// inserted preserves the global count of ingested chunks for audit.
	inserted atomic.Int64
	// epoch counts topology/table revisions (PlanScaleOut commits one,
	// ExecuteRebalance commits one per plan that moves chunks). Ingest
	// and rebalance plans are pinned to the epoch they were computed
	// under and go stale when it moves. Written under admin exclusive;
	// atomic so the lock-free reader Epoch (the advisor's cached-plan
	// key) can observe it without the admin lock.
	epoch atomic.Uint64
	// feed is the committed placement change feed (see feed.go).
	feed placementFeed
	// pendingPlans counts planned-but-not-yet-executed batches, whose
	// chunks are catalogued but not stored; Validate refuses to audit
	// while any are outstanding.
	pendingPlans atomic.Int64
	// pendingRebalances counts planned-but-not-yet-executed rebalances
	// (RebalancePlan); Validate names them too, so a leaked plan fails
	// loudly instead of surfacing as phantom catalog drift.
	pendingRebalances atomic.Int64

	// replication is the configured copy count per primary chunk (>= 1).
	// At 1 (the default) nothing below is exercised and ingest behaves
	// exactly as before.
	replication int
	// transferRetries/transferBackoff bound the retry loop rebalance
	// shipping runs against transient store faults before falling back to
	// atomic rollback (see putWithRetry).
	transferRetries int
	transferBackoff time.Duration
	// downCount tracks how many nodes are Down — the lock-free gate the
	// query layer's failover path checks so a healthy cluster pays one
	// atomic load and nothing else.
	downCount atomic.Int32
	// repChunks/repKeys are the authoritative registry of fully
	// replicated arrays (ReplicateArray): the copy source for scale-out
	// and node recovery, and the expectation Validate audits every
	// healthy node against. Mutated and read under admin exclusive.
	repChunks []*array.Chunk
	repKeys   map[array.ChunkKey]bool

	// transport is the node transport every inter-node data path routes
	// through: ingest writes, rebalance receiver batches, replica copies,
	// query-layer chunk pulls and holdings announcements. Never nil: New
	// installs a transport.Loopback when the configuration names none.
	transport transport.Transport
	// annMu guards annSink (a leaf lock: announcements arrive from
	// handler callbacks while admin is held).
	annMu sync.Mutex
	// annSink, when set, observes every announcement the coordinator
	// receives — the failure detector's heartbeat feed. Invoked outside
	// annMu, but possibly from a handler callback while admin is held
	// exclusively (announceAll over the loopback transport delivers
	// synchronously), so a sink must never take cluster locks.
	annSink func(transport.Announcement)
	// liveNodes is a lock-free snapshot of the node set (*Node slice,
	// coordinator first) for the heartbeat loop: HeartbeatNow must not
	// take the admin lock, or a long administrative operation — a big
	// rebalance, a recovery — would stall heartbeats and cascade false
	// suspicion across the cluster. Rebuilt under admin exclusive
	// wherever the node set grows (New, scale-out planning).
	liveNodes atomic.Value // []*Node
}

// newStore builds the chunk store for a node per the cluster's storage
// configuration.
func (c *Cluster) newStore(id partition.NodeID) (ChunkStore, error) {
	if c.storageDir == "" {
		return NewMemStore(), nil
	}
	return NewDiskStore(
		filepath.Join(c.storageDir, fmt.Sprintf("node-%d", id)),
		func(name string) (*array.Schema, bool) { return c.Schema(name) },
	)
}

// Config assembles a cluster.
type Config struct {
	// InitialNodes is the starting node count (the paper's experiments
	// begin with 2).
	InitialNodes int
	// NodeCapacity is the per-node storage capacity in bytes (the
	// paper's 100 GB, scaled).
	NodeCapacity int64
	// Cost is the simulated-time model; zero value selects
	// DefaultCostModel.
	Cost CostModel
	// Partitioner builds the placement scheme over the initial nodes.
	Partitioner PartitionerFactory
	// StorageDir, when non-empty, gives every node a write-through
	// DiskStore under StorageDir/node-<id>, so chunk payloads survive
	// the process (re-index with OpenDiskStore).
	StorageDir string
	// Parallelism caps the worker pool of the query layer's scan
	// executor (query.Exec). 0, the default, gates the pool at
	// GOMAXPROCS; an explicit value is honoured as given, so benchmark
	// sweeps can pin 1/2/4/8 workers regardless of the host's core
	// count. Retune a live cluster with SetParallelism.
	Parallelism int
	// ReplicationFactor is how many copies of every primary chunk the
	// cluster keeps: 1 (the default) stores primaries only — exactly the
	// pre-fault-tolerance behaviour — while R >= 2 has ingest place R-1
	// secondary copies on distinct healthy nodes (rendezvous-hashed away
	// from the primary), tracked by the catalog and kept consistent
	// across rebalances. Must not exceed InitialNodes.
	ReplicationFactor int
	// TransferRetries is the total number of attempts rebalance shipping
	// makes per chunk store write before treating the fault as permanent
	// and rolling the plan back (0 = default 3, 1 = no retry).
	TransferRetries int
	// TransferBackoff is the base delay between those attempts, doubling
	// per retry (0 = default 500µs).
	TransferBackoff time.Duration
	// Transport is the node transport every inter-node data path — ingest
	// writes, rebalance receiver batches, replica copies, query chunk
	// pulls — is routed through: transport.TCP for real sockets,
	// transport.FaultTransport for chaos. nil, the default, runs the
	// cluster in process on a transport.Loopback (pointer hand-off, no
	// encoding). Every node is served on it at construction; call Close
	// when done.
	Transport transport.Transport
}

// New assembles and validates a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.InitialNodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one initial node, got %d", cfg.InitialNodes)
	}
	if cfg.NodeCapacity <= 0 {
		return nil, fmt.Errorf("cluster: node capacity must be positive, got %d", cfg.NodeCapacity)
	}
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("cluster: partitioner factory is required")
	}
	cost := cfg.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	replication := cfg.ReplicationFactor
	if replication == 0 {
		replication = 1
	}
	if replication < 1 {
		return nil, fmt.Errorf("cluster: replication factor must be >= 1, got %d", replication)
	}
	if replication > cfg.InitialNodes {
		return nil, fmt.Errorf("cluster: replication factor %d exceeds the %d initial node(s)", replication, cfg.InitialNodes)
	}
	retries := cfg.TransferRetries
	if retries == 0 {
		retries = 3
	}
	if retries < 1 {
		return nil, fmt.Errorf("cluster: transfer retries must be >= 1, got %d", retries)
	}
	backoff := cfg.TransferBackoff
	if backoff == 0 {
		backoff = 500 * time.Microsecond
	}
	if backoff < 0 {
		return nil, fmt.Errorf("cluster: transfer backoff must be >= 0, got %v", backoff)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.NewLoopback()
	}
	c := &Cluster{
		cost:            cost,
		nodes:           make(map[partition.NodeID]*Node),
		owner:           newOwnerCatalog(),
		schemas:         make(map[string]*array.Schema),
		nodeCapacity:    cfg.NodeCapacity,
		storageDir:      cfg.StorageDir,
		replication:     replication,
		transferRetries: retries,
		transferBackoff: backoff,
		repKeys:         make(map[array.ChunkKey]bool),
		transport:       tr,
	}
	c.parallelism.Store(int32(cfg.Parallelism))
	var initial []partition.NodeID
	for i := 0; i < cfg.InitialNodes; i++ {
		id := c.nextID
		c.nextID++
		store, err := c.newStore(id)
		if err != nil {
			return nil, err
		}
		c.nodes[id] = newNode(id, cfg.NodeCapacity, store)
		c.order = append(c.order, id)
		initial = append(initial, id)
	}
	p, err := cfg.Partitioner(initial)
	if err != nil {
		return nil, fmt.Errorf("cluster: building partitioner: %w", err)
	}
	c.part = p
	c.publishLiveNodes()
	for _, id := range initial {
		if err := c.transport.Serve(id, &nodeService{c: c, node: c.nodes[id]}); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// --- partition.State implementation -------------------------------------

// Nodes implements partition.State.
func (c *Cluster) Nodes() []partition.NodeID {
	return append([]partition.NodeID(nil), c.order...)
}

// NodeLoad implements partition.State.
func (c *Cluster) NodeLoad(n partition.NodeID) int64 {
	node, ok := c.nodes[n]
	if !ok {
		return 0
	}
	return node.Bytes()
}

// NodeChunks implements partition.State.
func (c *Cluster) NodeChunks(n partition.NodeID) []array.ChunkInfo {
	node, ok := c.nodes[n]
	if !ok {
		return nil
	}
	return node.ChunkInfos()
}

// Owner implements partition.State: a hash to pick the catalog shard and a
// single map probe on the packed key, no allocation. Callers holding a
// ChunkRef convert with ref.Packed().
func (c *Cluster) Owner(key array.ChunkKey) (partition.NodeID, bool) {
	return c.owner.Get(key)
}

// --- administration ------------------------------------------------------

// Partitioner returns the placement scheme in use.
func (c *Cluster) Partitioner() partition.Partitioner { return c.part }

// Cost returns the simulated-time model.
func (c *Cluster) Cost() CostModel { return c.cost }

// NumNodes returns the current node count.
func (c *Cluster) NumNodes() int { return len(c.order) }

// Parallelism returns the scan-executor worker cap queries run with
// (0 = GOMAXPROCS-gated).
func (c *Cluster) Parallelism() int { return int(c.parallelism.Load()) }

// SetParallelism retunes the scan-executor worker cap. Queries read the
// knob once at startup, so the new value applies to queries issued after
// the call.
func (c *Cluster) SetParallelism(n int) { c.parallelism.Store(int32(n)) }

// Capacity returns the total cluster capacity in bytes.
func (c *Cluster) Capacity() int64 { return int64(len(c.order)) * c.nodeCapacity }

// TotalBytes returns the partitioned bytes stored across all nodes.
func (c *Cluster) TotalBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.Bytes()
	}
	return total
}

// NumChunks returns the number of partitioned chunks in the catalog.
func (c *Cluster) NumChunks() int { return c.owner.Len() }

// Node returns a node by ID, for inspection by queries and tests.
func (c *Cluster) Node(id partition.NodeID) (*Node, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// Coordinator returns the node acting as coordinator (the lowest ID, which
// always exists). Inserts enter the system through it.
func (c *Cluster) Coordinator() partition.NodeID { return c.order[0] }

// DefineArray registers a schema. Inserting chunks of an undefined array
// is an error.
func (c *Cluster) DefineArray(s *array.Schema) error {
	c.admin.Lock()
	defer c.admin.Unlock()
	return c.defineArrayLocked(s)
}

func (c *Cluster) defineArrayLocked(s *array.Schema) error {
	if _, dup := c.schemas[s.Name]; dup {
		return fmt.Errorf("cluster: array %s already defined", s.Name)
	}
	c.schemaMu.Lock()
	c.schemas[s.Name] = s
	c.schemaMu.Unlock()
	return nil
}

// Schema returns a registered schema. Safe to call concurrently with
// ingest and DefineArray.
func (c *Cluster) Schema(name string) (*array.Schema, bool) {
	c.schemaMu.RLock()
	s, ok := c.schemas[name]
	c.schemaMu.RUnlock()
	return s, ok
}

// Loads returns the per-node partitioned bytes in node order.
func (c *Cluster) Loads() []float64 {
	out := make([]float64, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, float64(c.nodes[id].Bytes()))
	}
	return out
}

// RSD returns the relative standard deviation of per-node storage — the
// paper's load-balance metric.
func (c *Cluster) RSD() float64 { return stats.RSD(c.Loads()) }

// --- ingest ---------------------------------------------------------------
// (Insert, PlanInsert and ExecutePlan live in ingest.go.)

// ReplicateArray stores the given chunks on every healthy node (the AIS
// vessel array pattern: small dimension tables replicated for local
// joins); a Down node is backfilled when RecoverNode readmits it. The
// chunks are registered so scale-out and recovery know the authoritative
// replica set, and ship from the coordinator through the one replica path.
// The call is all-or-nothing: a chunk already replicated (or named twice)
// or a push that fails for good leaves nothing behind. The charge is one
// network broadcast of the payload to each non-coordinator node.
func (c *Cluster) ReplicateArray(s *array.Schema, chunks []*array.Chunk) (Duration, error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	var undo undoLog
	if _, ok := c.schemas[s.Name]; !ok {
		if err := c.defineArrayLocked(s); err != nil {
			return 0, err
		}
		undo.push(func() {
			c.schemaMu.Lock()
			delete(c.schemas, s.Name)
			c.schemaMu.Unlock()
		})
	}
	registered := len(c.repChunks)
	undo.push(func() {
		for _, ch := range c.repChunks[registered:] {
			delete(c.repKeys, ch.Key())
		}
		c.repChunks = c.repChunks[:registered]
	})
	var bytes int64
	for _, ch := range chunks {
		if c.repKeys[ch.Key()] {
			undo.unwind()
			return 0, fmt.Errorf("cluster: chunk %s already replicated", ch.Ref())
		}
		bytes += ch.SizeBytes()
		c.repChunks = append(c.repChunks, ch)
		c.repKeys[ch.Key()] = true
	}
	if _, err := c.shipReplicas(c.replicatedGaps(), &undo); err != nil {
		undo.unwind()
		return 0, err
	}
	return c.cost.NetTime(bytes * int64(len(c.order)-1)), nil
}

// --- scale-out -------------------------------------------------------------

// ScaleOutResult reports what a cluster expansion did, including the
// measured transfer next to the Eq 7 prediction.
type ScaleOutResult struct {
	Added      []partition.NodeID
	Moves      int
	MovedBytes int64
	Reorg      Duration
	// PredictedWireBytes is the plan-time Eq 7 effective wire volume;
	// MeasuredWireBytes is the same fold over what execution actually
	// shipped (equal unless the replica set changed in between).
	PredictedWireBytes int64
	MeasuredWireBytes  int64
	// FrameBytes is the transport-reported wire volume (see
	// RebalanceResult.FrameBytes) and MeasuredDuration the execution's
	// wall clock.
	FrameBytes       int64
	MeasuredDuration time.Duration
}

// ScaleOut provisions k new nodes, lets the partitioner revise its table,
// and executes the resulting migration — a thin wrapper over the
// plan → execute pipeline (PlanScaleOut / ExecuteRebalance) run as one
// administrative operation. Each receiving node's chunks cross the
// cluster transport as one batch push, and the reorganization charge is
// the paper's Eq 7 quantity. Replicated arrays are copied to the new nodes
// as part of the expansion.
func (c *Cluster) ScaleOut(k int) (ScaleOutResult, error) {
	if k < 1 {
		return ScaleOutResult{}, fmt.Errorf("cluster: ScaleOut(%d): need k >= 1", k)
	}
	c.admin.Lock()
	defer c.admin.Unlock()
	plan, err := c.planScaleOut(k)
	if err != nil {
		return ScaleOutResult{}, err
	}
	res := ScaleOutResult{Added: plan.Added()}
	reorg, err := c.executeRebalance(plan)
	if err != nil {
		// Execution rolled the data movement back; the provisioned nodes
		// and revised table stand (monotonic growth).
		return res, err
	}
	res.Moves = plan.NumMoves()
	res.MovedBytes = plan.Bytes()
	res.Reorg = reorg
	r := plan.Result()
	res.PredictedWireBytes = r.PredictedWireBytes
	res.MeasuredWireBytes = r.MeasuredWireBytes
	res.FrameBytes = r.FrameBytes
	res.MeasuredDuration = r.MeasuredDuration
	return res, nil
}

// Validate audits cluster invariants: the catalog and the healthy node
// stores agree exactly, every chunk decodes under its schema, per-node
// accounting matches payload sizes, and the replica overlay is complete —
// every healthy node holds the full replicated-array set plus its assigned
// secondary copies, replica bytes reconcile with Node.ReplicaBytes, and at
// replication factor R every reachable primary has its required healthy
// secondaries. A chunk still catalogued to a Down node is reported as
// degraded (run PlanRecover). Tests call Validate after every phase.
func (c *Cluster) Validate() error {
	c.admin.Lock()
	defer c.admin.Unlock()
	if ni, nr := c.pendingPlans.Load(), c.pendingRebalances.Load(); ni != 0 || nr != 0 {
		return fmt.Errorf("cluster: %d ingest plan(s) and %d rebalance plan(s) outstanding (execute or discard them before validating)", ni, nr)
	}
	seen := 0
	for _, id := range c.order {
		node := c.nodes[id]
		if node.Health() == NodeDown {
			// Unreachable store: skipped here, and any primary still
			// catalogued to it is reported as degraded below.
			continue
		}
		var bytes int64
		for _, ch := range node.Chunks() {
			owner, ok := c.owner.Get(ch.Key())
			if !ok {
				return fmt.Errorf("cluster: node %d stores uncatalogued chunk %s", id, ch.Ref())
			}
			if owner != id {
				return fmt.Errorf("cluster: catalog places %s on %d but it lives on %d", ch.Ref(), owner, id)
			}
			if err := ch.Validate(); err != nil {
				return err
			}
			bytes += ch.SizeBytes()
			seen++
		}
		if bytes != node.Bytes() {
			return fmt.Errorf("cluster: node %d accounts %d bytes, payloads sum to %d", id, node.Bytes(), bytes)
		}
	}
	if lost := c.primariesOnDown(); len(lost) > 0 {
		return fmt.Errorf("cluster: degraded: %d chunk(s) catalogued to down node(s), first %s (run PlanRecover)", len(lost), lost[0])
	}
	if n := c.owner.Len(); seen != n {
		return fmt.Errorf("cluster: catalog has %d chunks, stores hold %d", n, seen)
	}
	if err := c.validateReplicas(); err != nil {
		return err
	}
	if sus := c.SuspectNodes(); len(sus) > 0 {
		return fmt.Errorf("cluster: %d node(s) suspect (failure detector awaiting verdict), first node %d", len(sus), sus[0])
	}
	return nil
}

// validateReplicas audits the replica overlay. Caller holds admin
// exclusive, with every catalogued primary known reachable.
func (c *Cluster) validateReplicas() error {
	required := c.requiredSecondaries()
	// Per-chunk secondary audit, in canonical order for deterministic
	// error reporting.
	entries := c.owner.sortedReplicas()
	assigned := make(map[partition.NodeID]int64) // per-node secondary bytes
	counts := make(map[partition.NodeID]int)
	withSec := make(map[array.ChunkKey]bool, len(entries))
	for _, e := range entries {
		ref := e.key.Ref()
		owner, ok := c.owner.Get(e.key)
		if !ok {
			return fmt.Errorf("cluster: secondaries recorded for uncatalogued chunk %s", ref)
		}
		primary, _ := c.nodes[owner].Chunk(ref)
		if primary == nil {
			return fmt.Errorf("cluster: replicated chunk %s missing from its primary node %d", ref, owner)
		}
		distinct := make(map[partition.NodeID]bool, len(e.nodes))
		for _, h := range e.nodes {
			holder, ok := c.nodes[h]
			if !ok {
				return fmt.Errorf("cluster: chunk %s has secondary on unknown node %d", ref, h)
			}
			if h == owner {
				return fmt.Errorf("cluster: chunk %s has a secondary on its own primary node %d", ref, h)
			}
			if distinct[h] {
				return fmt.Errorf("cluster: chunk %s lists node %d as secondary twice", ref, h)
			}
			distinct[h] = true
			if holder.Health() == NodeDown {
				return fmt.Errorf("cluster: degraded: secondary of %s lives on down node %d (run PlanRecover)", ref, h)
			}
			rep, ok := holder.Replica(ref)
			if !ok {
				return fmt.Errorf("cluster: node %d misses its assigned secondary of %s", h, ref)
			}
			if rep.SizeBytes() != primary.SizeBytes() {
				return fmt.Errorf("cluster: secondary of %s on node %d is %d bytes, primary is %d", ref, h, rep.SizeBytes(), primary.SizeBytes())
			}
			assigned[h] += rep.SizeBytes()
			counts[h]++
		}
		if len(e.nodes) != required {
			return fmt.Errorf("cluster: chunk %s has %d secondaries, replication factor %d requires %d", ref, len(e.nodes), c.replication, required)
		}
		withSec[e.key] = true
	}
	if required > 0 {
		var bare []array.ChunkRef
		c.owner.Each(func(key array.ChunkKey, _ partition.NodeID) {
			if !withSec[key] {
				bare = append(bare, key.Ref())
			}
		})
		if len(bare) > 0 {
			sort.Slice(bare, func(i, j int) bool { return bare[i].Packed().Less(bare[j].Packed()) })
			return fmt.Errorf("cluster: %d chunk(s) have no secondaries at replication factor %d, first %s", len(bare), c.replication, bare[0])
		}
	}
	// Per-node replica accounting: the full replicated-array set plus the
	// assigned secondaries, and nothing else.
	var repArrayBytes int64
	for _, rep := range c.repChunks {
		repArrayBytes += rep.SizeBytes()
	}
	for _, id := range c.order {
		node := c.nodes[id]
		if node.Health() == NodeDown {
			continue
		}
		for _, rep := range c.repChunks {
			held, ok := node.Replica(rep.Ref())
			if !ok {
				return fmt.Errorf("cluster: node %d misses replicated-array chunk %s", id, rep.Ref())
			}
			if held.SizeBytes() != rep.SizeBytes() {
				return fmt.Errorf("cluster: replica of %s on node %d is %d bytes, want %d", rep.Ref(), id, held.SizeBytes(), rep.SizeBytes())
			}
		}
		wantBytes := repArrayBytes + assigned[id]
		if got := node.ReplicaBytes(); got != wantBytes {
			return fmt.Errorf("cluster: node %d accounts %d replica bytes, expected %d", id, got, wantBytes)
		}
		wantCount := len(c.repChunks) + counts[id]
		if got := node.NumReplicas(); got != wantCount {
			return fmt.Errorf("cluster: node %d holds %d replica payloads, expected %d", id, got, wantCount)
		}
	}
	return nil
}
