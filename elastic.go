// Package elastic is the public face of this repository: a from-scratch Go
// reproduction of Duggan & Stonebraker, "Incremental Elasticity for Array
// Databases" (SIGMOD 2014).
//
// The library implements an elastically growing shared-nothing array
// database: SciDB-style n-dimensional chunked arrays, eight elastic data
// placement schemes (Append, Consistent Hash, Extendible Hash, Hilbert
// Curve, Incremental Quadtree, K-d Tree, Round Robin, Uniform Range), the
// leading-staircase PD provisioner with its two workload tuners, the
// paper's two benchmark workloads (MODIS remote sensing and AIS vessel
// tracks), and a deterministic simulated-time cost substrate that stands in
// for the paper's physical 8-node cluster.
//
// # Ingest pipeline
//
// Ingest is batch-first. Placement schemes implement the Placer contract —
// PlaceBatch maps a whole batch of chunks to destination nodes in one call
// — and the cluster splits ingest into an explicit plan → execute pipeline:
// PlanInsert validates the batch (schemas, duplicates, destinations) and
// reserves its chunks in a sharded catalog, returning an IngestPlan;
// ExecutePlan then pushes one batch to each destination node.
// Cluster.Insert runs both phases in one call and is safe for concurrent
// use — parallel batches interleave against the catalog shards without
// double-placing a chunk.
//
// # Rebalancing
//
// The elasticity surface follows the same plan → execute contract:
// Cluster.PlanScaleOut provisions nodes, revises the placement table and
// returns a RebalancePlan whose per-receiver batches, predicted wire
// bytes and Eq 7 duration are readable before committing;
// Cluster.PlanMigrate validates an externally planned move set the same
// way (the co-access advisor's Advise returns one, plus predicted
// before/after remote traffic, without moving anything). ExecuteRebalance
// ships each receiver's chunks as one batch push over the cluster's node
// transport, receivers in parallel, atomically; Discard backs a plan out.
// ScaleOut and Migrate remain as thin plan+execute wrappers.
//
// # Fault tolerance
//
// Config.ReplicationFactor >= 2 keeps R copies of every primary chunk on
// distinct nodes. Cluster.FailNode marks a node Down: planning routes
// around it, queries fail chunk reads over to surviving replicas
// (returning *query.ErrPartialResult naming the lost chunks only when no
// copy survives), and Cluster.PlanRecover produces an inspectable
// RebalancePlan that promotes surviving replicas to primaries and
// re-replicates onto healthy nodes — executed by the same
// ExecuteRebalance, whose per-receiver transfers retry transient store
// faults with exponential backoff before falling back to atomic
// rollback. Cluster.RecoverNode readmits a repaired node.
//
// # Parallel queries
//
// The benchmark operators run their chunk scans on a worker-pool
// executor. Config.Parallelism caps the pool (0 = GOMAXPROCS); results
// are byte-identical at every level — the executor folds per-item
// partials in canonical order and merges integer cost charges at the
// pool barrier — so parallelism is purely a wall-clock knob, never a
// result perturbation. See ARCHITECTURE.md.
//
// # Quick start
//
//	gen, _ := elastic.NewAIS(elastic.AISConfig{Cycles: 6})
//	eng, _ := elastic.NewEngine(gen, elastic.Config{
//	        PartitionerKind: elastic.KindKdTree,
//	        InitialNodes:    2,
//	        NodeCapacity:    8 << 20,
//	        RunQueries:      true,
//	})
//	stats, _ := eng.Run()
//	for _, s := range stats {
//	        fmt.Printf("cycle %d: %d nodes, rsd %.0f%%\n", s.Cycle, s.NodesAfter, s.RSD*100)
//	}
//
// This package re-exports what an Engine-level program needs. Everything
// below the Engine — plans, placement feeds, fault injection, transports,
// the supervisor — is used through the layers themselves:
// repro/internal/{array, partition, cluster, transport, supervisor,
// provision, workload, query, advisor, experiments}.
package elastic

import (
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/provision"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Core engine types (the paper's contribution assembled).
type (
	// Engine drives a cyclic workload against an elastic cluster.
	Engine = core.Engine
	// Config assembles an elastic array database run.
	Config = core.Config
	// CycleStats records one workload cycle's three phases and the
	// provisioning action (Equation 1's inputs).
	CycleStats = core.CycleStats
	// Cluster is the shared-nothing array database (Engine.Cluster).
	Cluster = cluster.Cluster
	// CostModel holds the simulated-time unit costs (δ, t, CPU).
	CostModel = cluster.CostModel
	// LiveAdvisor is the continuous co-access advisor: a graph maintained
	// incrementally from the placement change feed, advising in O(what
	// changed) instead of rebuilding per call. Attach one with
	// Config.AdviseArrays (Engine.Advisor) or NewLiveAdvisor.
	LiveAdvisor = advisor.Live
)

// Transport types (Config.Transport; nil runs the engine in process).
type (
	// TCP is the socket transport backend: every node a served endpoint,
	// chunk batches streamed over the ABAT codec with bounded memory.
	TCP = transport.TCP
	// TCPOptions tunes the TCP backend (listen address and timeouts).
	TCPOptions = transport.TCPOptions
)

// NewTCP returns the socket transport backend.
func NewTCP(opts TCPOptions) *TCP { return transport.NewTCP(opts) }

// Provisioning types.
type (
	// Controller is the leading staircase PD control loop.
	Controller = provision.Controller
	// CostParams feeds the analytical scale-out cost model (Eqs 5–9).
	CostParams = provision.CostParams
)

// Workload types.
type (
	// Generator produces the chunk batches of a cyclic workload.
	Generator = workload.Generator
	// MODISConfig sizes the remote-sensing workload.
	MODISConfig = workload.MODISConfig
	// AISConfig sizes the ship-tracking workload.
	AISConfig = workload.AISConfig
)

// Partitioner kinds accepted by Config.PartitionerKind, in the order the
// paper's figures list the schemes.
const (
	KindAppend     = partition.KindAppend
	KindConsistent = partition.KindConsistent
	KindExtendible = partition.KindExtendible
	KindHilbert    = partition.KindHilbert
	KindQuadtree   = partition.KindQuadtree
	KindKdTree     = partition.KindKdTree
	KindRoundRobin = partition.KindRoundRobin
	KindUniform    = partition.KindUniform
)

// NewEngine validates the configuration and assembles the elastic array
// database over the generator's workload.
func NewEngine(gen Generator, cfg Config) (*Engine, error) { return core.NewEngine(gen, cfg) }

// NewLiveAdvisor subscribes a continuous co-access advisor to the
// cluster's placement change feed over the named arrays. The first
// Advise/Refresh pays one full graph build; every later committed ingest
// and rebalance patches the graph in place.
func NewLiveAdvisor(c *Cluster, arrays []string) (*LiveAdvisor, error) {
	return advisor.NewLive(c, arrays)
}

// NewMODIS builds the synthetic MODIS remote-sensing workload (§3.1).
func NewMODIS(cfg MODISConfig) (*workload.MODIS, error) { return workload.NewMODIS(cfg) }

// NewAIS builds the synthetic AIS vessel-track workload (§3.2).
func NewAIS(cfg AISConfig) (*workload.AIS, error) { return workload.NewAIS(cfg) }

// NewController builds a leading-staircase controller with sample count s,
// planning horizon p and per-node capacity c (Eqs 2–4).
func NewController(s, p int, nodeCapacity float64) (*Controller, error) {
	return provision.NewController(s, p, nodeCapacity)
}

// TuneS fits the controller's sample count to an observed demand curve by
// what-if analysis (Algorithm 1).
func TuneS(history []float64, psi int) (int, []float64, error) {
	return provision.TuneS(history, psi)
}

// TuneP scores candidate planning horizons with the analytical cost model
// (Eqs 5–9) and returns the cheapest.
func TuneP(params CostParams, candidates []int) (int, map[int]float64, error) {
	return provision.TuneP(params, candidates)
}

// PartitionerKinds returns all scheme keys in figure order.
func PartitionerKinds() []string { return partition.Kinds() }

// DefaultCostModel mirrors a 2014-era cluster at full scale;
// ScaledCostModel matches the scaled-down synthetic workloads (see
// cluster.ByteScaleDown).
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

// ScaledCostModel returns the cost model the experiments use.
func ScaledCostModel() CostModel { return cluster.ScaledCostModel() }

// TotalNodeSeconds sums Equation 1 over a run: Σ N_i (I_i + r_i + w_i).
func TotalNodeSeconds(stats []CycleStats) float64 { return core.TotalNodeSeconds(stats) }
