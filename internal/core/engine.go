// Package core is the paper's primary contribution assembled: incremental
// elasticity for an array database. An Engine drives the cyclic workload
// model of Section 3.4 — data ingest, reorganization, processing — against
// the shared-nothing cluster substrate, deciding when to scale out either
// with the leading-staircase PD controller (Section 5) or with the fixed
// "add k nodes at capacity" schedule the partitioner experiments use
// (Section 6.2), and recording the per-cycle statistics every figure and
// table of the evaluation is derived from.
package core

import (
	"fmt"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/provision"
	"repro/internal/query"
	"repro/internal/supervisor"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config assembles an elastic array database run.
type Config struct {
	// PartitionerKind is one of partition.Kinds().
	PartitionerKind string
	// PartitionerOptions tunes the scheme; Append's NodeCapacity is
	// filled from NodeCapacity automatically when zero.
	PartitionerOptions partition.Options
	// InitialNodes is the starting cluster size (the paper: 2).
	InitialNodes int
	// NodeCapacity is c in bytes.
	NodeCapacity int64
	// Cost overrides the simulated cost model (zero = defaults).
	Cost cluster.CostModel
	// Controller, when non-nil, decides scale-outs (leading staircase).
	// When nil the engine uses the fixed schedule: add FixedStep nodes
	// whenever the incoming insert exceeds capacity.
	Controller *provision.Controller
	// FixedStep is the fixed-schedule step size (default 2, as in the
	// partitioner experiments).
	FixedStep int
	// MaxNodes caps the cluster (0 = uncapped; the paper's testbed: 8).
	MaxNodes int
	// RunQueries runs the workload's benchmark suite each cycle.
	RunQueries bool
	// Parallelism caps the query scan executor's worker pool
	// (cluster.Config.Parallelism): 0 gates it at GOMAXPROCS, an
	// explicit value pins the worker count for benchmark sweeps.
	Parallelism int
	// ReplicationFactor is the number of copies kept of each primary
	// chunk (cluster.Config.ReplicationFactor): 0 or 1 stores primaries
	// only; R >= 2 places R-1 secondary copies on distinct nodes so the
	// cluster survives node failures (Cluster.FailNode / PlanRecover).
	ReplicationFactor int
	// AdviseArrays, when non-empty, attaches a continuous co-access
	// advisor (advisor.Live) over the named arrays: the advisor's graph
	// is patched incrementally from the cluster's placement change feed
	// as cycles ingest and rebalance, so Engine.Advisor().Advise costs
	// O(what changed) instead of a per-call cluster walk. The arrays
	// must be among the generator's schemas.
	AdviseArrays []string
	// Transport is the node transport the inter-node data paths — ingest
	// writes, rebalance batches, query-side chunk pulls — are routed
	// through (cluster.Config.Transport): transport.TCP for real sockets;
	// nil, the default, runs in process on a transport.Loopback.
	Transport transport.Transport
	// Supervise, when non-nil, attaches and starts a self-healing
	// supervisor over the cluster: nodes heartbeat the coordinator, a
	// failure detector turns silence into Suspect/Down verdicts, and the
	// supervisor runs FailNode → PlanRecover → ExecuteRebalance (and
	// RecoverNode on return) automatically. The
	// zero-value supervisor.Options{} selects all defaults.
	Supervise *supervisor.Options
}

// CycleStats records one workload cycle: the three phase durations, the
// provisioning action, and the load-balance metric. The paper's Equation 1
// cost of the cycle is NodeSeconds.
type CycleStats struct {
	Cycle       int
	DemandBytes int64 // storage demand including this cycle's insert
	NodesBefore int
	NodesAfter  int
	Added       int
	MovedBytes  int64
	Insert      cluster.Duration
	Reorg       cluster.Duration
	Query       cluster.Duration
	RSD         float64
	Suite       query.SuiteResult
}

// NodeSeconds is the cycle's cost by Equation 1: node count times the sum
// of insert, reorganization and query-workload time.
func (s CycleStats) NodeSeconds() float64 {
	return float64(s.NodesAfter) * (s.Insert + s.Reorg + s.Query).Seconds()
}

// Engine drives a generator's cyclic workload against an elastic cluster.
type Engine struct {
	cfg     Config
	gen     workload.Generator
	cluster *cluster.Cluster
	suite   func(*cluster.Cluster, int) (query.SuiteResult, error)
	live    *advisor.Live
	sup     *supervisor.Supervisor
	cycle   int
}

// NewEngine validates the configuration, builds the cluster with the named
// partitioner over the generator's chunk-grid geometry, registers the
// workload's schemas and replicates its dimension arrays.
func NewEngine(gen workload.Generator, cfg Config) (*Engine, error) {
	if gen == nil {
		return nil, fmt.Errorf("core: generator is required")
	}
	if cfg.FixedStep == 0 {
		cfg.FixedStep = 2
	}
	if cfg.FixedStep < 0 {
		return nil, fmt.Errorf("core: FixedStep must be positive")
	}
	if cfg.PartitionerOptions.NodeCapacity == 0 {
		cfg.PartitionerOptions.NodeCapacity = cfg.NodeCapacity
	}
	geom := gen.Geometry()
	cl, err := cluster.New(cluster.Config{
		InitialNodes:      cfg.InitialNodes,
		NodeCapacity:      cfg.NodeCapacity,
		Cost:              cfg.Cost,
		Parallelism:       cfg.Parallelism,
		ReplicationFactor: cfg.ReplicationFactor,
		Transport:         cfg.Transport,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.New(cfg.PartitionerKind, initial, geom, cfg.PartitionerOptions)
		},
	})
	if err != nil {
		return nil, err
	}
	for _, s := range gen.Schemas() {
		if err := cl.DefineArray(s); err != nil {
			return nil, err
		}
	}
	if rs, rchunks := gen.Replicated(); rs != nil {
		if _, err := cl.ReplicateArray(rs, rchunks); err != nil {
			return nil, err
		}
	}
	e := &Engine{cfg: cfg, gen: gen, cluster: cl}
	if len(cfg.AdviseArrays) > 0 {
		e.live, err = advisor.NewLive(cl, cfg.AdviseArrays)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Supervise != nil {
		e.sup, err = supervisor.New(cl, *cfg.Supervise)
		if err != nil {
			return nil, err
		}
		if err := e.sup.Start(); err != nil {
			return nil, err
		}
	}
	switch gen.Name() {
	case "MODIS":
		e.suite = query.MODISSuite
	case "AIS":
		e.suite = query.AISSuite
	default:
		e.suite = nil // unknown workloads run without a benchmark suite
	}
	return e, nil
}

// Cluster exposes the underlying database for inspection and ad-hoc
// queries.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Close stops the supervisor (when one was attached) and releases the
// engine's cluster transport endpoints (listeners, pooled connections).
// It ends the engine: every data path crosses the transport, so a closed
// engine — in process or not — accepts no further writes.
func (e *Engine) Close() error {
	if e.sup != nil {
		e.sup.Stop()
	}
	return e.cluster.Close()
}

// Advisor returns the continuous co-access advisor attached via
// Config.AdviseArrays, or nil when none was configured. Its graph follows
// every cycle's ingest and reorganization incrementally; call
// Advisor().Advise between cycles for an O(delta) placement
// recommendation.
func (e *Engine) Advisor() *advisor.Live { return e.live }

// RunCycle executes the next workload cycle: generate the insert batch,
// decide the scale-out (before inserting, as in Section 3.4: the database
// first determines whether it is under-provisioned for the incoming
// insert), reorganize, ingest, then run the benchmark suite. Both
// elasticity phases run through their two-phase pipelines explicitly:
// the scale-out is planned (nodes provisioned, table revised, moves
// validated and grouped per receiver) and then executed as batched
// receiver-parallel transfers, and the ingest batch is planned after the
// rebalance has settled the topology, then executed with per-destination
// parallelism.
func (e *Engine) RunCycle() (CycleStats, error) {
	i := e.cycle
	if i >= e.gen.Cycles() {
		return CycleStats{}, fmt.Errorf("core: workload exhausted after %d cycles", e.gen.Cycles())
	}
	batch, err := e.gen.Batch(i)
	if err != nil {
		return CycleStats{}, err
	}
	demand := e.cluster.TotalBytes() + workload.BatchBytes(batch)
	stats := CycleStats{
		Cycle:       i,
		DemandBytes: demand,
		NodesBefore: e.cluster.NumNodes(),
	}
	k := e.planStep(float64(demand))
	if k > 0 {
		rplan, err := e.cluster.PlanScaleOut(k)
		if err != nil {
			return stats, err
		}
		stats.Added = len(rplan.Added())
		stats.MovedBytes = rplan.Bytes()
		stats.Reorg, err = e.cluster.ExecuteRebalance(rplan)
		if err != nil {
			return stats, err
		}
	}
	stats.NodesAfter = e.cluster.NumNodes()
	plan, err := e.cluster.PlanInsert(batch)
	if err != nil {
		return stats, err
	}
	stats.Insert, err = e.cluster.ExecutePlan(plan)
	if err != nil {
		return stats, err
	}
	stats.RSD = e.cluster.RSD()
	if e.cfg.RunQueries && e.suite != nil {
		stats.Suite, err = e.suite(e.cluster, i)
		if err != nil {
			return stats, err
		}
		stats.Query = stats.Suite.Total()
	}
	e.cycle++
	return stats, nil
}

// planStep decides how many nodes to add for the given demand.
func (e *Engine) planStep(demand float64) int {
	var k int
	if e.cfg.Controller != nil {
		e.cfg.Controller.Observe(demand)
		k = e.cfg.Controller.Plan(e.cluster.NumNodes())
	} else if demand > float64(e.cluster.Capacity()) {
		k = e.cfg.FixedStep
	}
	if e.cfg.MaxNodes > 0 && e.cluster.NumNodes()+k > e.cfg.MaxNodes {
		k = e.cfg.MaxNodes - e.cluster.NumNodes()
	}
	if k < 0 {
		k = 0
	}
	return k
}

// Run executes every remaining workload cycle and returns the per-cycle
// statistics.
func (e *Engine) Run() ([]CycleStats, error) {
	var out []CycleStats
	for e.cycle < e.gen.Cycles() {
		s, err := e.RunCycle()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// TotalNodeSeconds sums Equation 1 over a run.
func TotalNodeSeconds(stats []CycleStats) float64 {
	var total float64
	for _, s := range stats {
		total += s.NodeSeconds()
	}
	return total
}
