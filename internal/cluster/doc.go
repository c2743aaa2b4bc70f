// Package cluster is the shared-nothing substrate the elasticity layers
// run on: a coordinator plus a monotonically growing set of nodes, each a
// capacity-accounted chunk store (in-memory, or write-through to disk),
// glued together by a partitioner and the authoritative chunk→node
// catalog. Simulated time — the currency of every experiment — comes from
// its CostModel: disk rate δ, network rate t, and the fixed per-operation
// overheads of the paper's Equations 6 and 7.
//
// # Ingest: plan → execute
//
// Ingest is an explicit two-phase pipeline. PlanInsert does all the
// fallible work — canonical-order sort, schema checks, duplicate detection
// within the batch and against the catalog, batch placement through
// partition.Placer.PlaceBatch, destination validation — and reserves the
// batch's chunks in the catalog, returning an IngestPlan. ExecutePlan then
// performs the writes, one batch pushed to each destination node, and
// charges the paper's Eq 6 split (coordinator-local bytes at disk rate,
// shipped bytes at network rate). A plan must be executed exactly once or
// released with Discard; Insert runs both phases in one call. Any number
// of ingest calls may run concurrently — the plan phase is serialised over
// the partitioner's table, execution interleaves against the sharded
// catalog and the locked stores.
//
// Plans are epoch-stamped: a rebalance committing advances the cluster's
// topology epoch, so a plan computed before the change is stale and
// ExecutePlan rejects it (releasing its reservations) rather than writing
// to destinations the revised table no longer sanctions.
//
// # Rebalance: plan → execute
//
// The elasticity surface follows the same contract. PlanScaleOut
// provisions k nodes, lets the partitioner revise its table (both commit
// at planning time — the epoch advances here) and returns a
// RebalancePlan; PlanMigrate validates an externally planned move set
// (the co-access advisor's, say) without changing anything. Planning does
// all the fallible work up front: every move is checked against the
// catalog, the source stores (a reserved-but-unstored ingest chunk
// cannot be moved) and the schema registry, then grouped per receiving
// node with the predicted wire volume and Eq 7 duration readable off the
// plan. ExecuteRebalance ships each receiver's chunks as one batch push,
// fanning receivers out in parallel for wide plans, and is atomic: any
// store or transport error rolls every chunk back to its source and
// restores the catalog. A plan executes at most once or is
// released with Discard; like ingest plans, rebalance plans are
// epoch-stamped, so executing one stales outstanding ingest plans and any
// concurrently planned rebalance. Validate names outstanding plans of
// both kinds. ScaleOut remains as a thin plan+execute wrapper run under
// one administrative critical section.
//
// # One data path, one rollback
//
// Every inter-node movement — ingest writes, rebalance receiver batches,
// secondary copies, recovery fills, readmission repairs — is a push over
// the cluster's transport.Transport, received by the destination node's
// receiver-atomic transport.Handler (service.go). Config.Transport == nil
// means "in process", which New spells transport.NewLoopback() — delivery
// by pointer, nothing encoded — so Close ends any cluster. Every new
// replica copy (ingest secondaries, recovery fills, readmission re-spread
// and backfill, ReplicateArray, replicated arrays on added nodes) goes
// through shipReplicas (undo.go): one KindReplica batch per (source,
// destination) pair. The one in-place exception is fixupMovedReplicas,
// which re-derives moved chunks' secondaries after a rebalance commits;
// shipping those over TCP was measured slower with no accounting gain
// (see its comment). Atomicity has one mechanism too: ExecutePlan,
// ExecuteRebalance (whichever producer planned it), ReplicateArray and
// RecoverNode log the inverse of each committed step on an undoLog
// (undo.go) and unwind it newest-first on failure.
//
// # The placement change feed
//
// Both execution choke points publish what they committed — chunk adds
// from ExecutePlan, chunk moves from ExecuteRebalance — as
// generation-stamped event batches on the placement change feed
// (SubscribePlacement / PlacementGen; see feed.go for the full contract).
// Batches are published only after the all-or-nothing execution phase has
// succeeded, so rollbacks, discards and stale-plan rejections are
// invisible to subscribers: the feed describes committed placement and
// nothing else. Derived-state consumers — the co-access advisor's
// continuous graph (advisor.Live) — patch themselves from the feed and
// fall back to a full rebuild under Quiesce, which freezes execution, the
// feed and the generation for a consistent snapshot. With no subscriber
// the feed costs the hot paths one atomic load.
//
// # The sharded catalog
//
// The catalog maps packed array.ChunkKey identities to owning nodes. It is
// striped over a power-of-two number of lock-guarded shards selected by
// ChunkKey.Hash, so concurrent batches reserve and publish ownership
// without contending on one lock while a single lookup stays hash → probe
// with no allocation. Reserve is the one-shot claim primitive: duplicate
// check and insertion under a single shard lock.
//
// # Queries
//
// The query layer (package query) reads nodes' chunks directly and runs
// its scans on a worker pool sized by Config.Parallelism (0 =
// GOMAXPROCS-gated; retune live with SetParallelism). Node stores are
// locked, so scans are safe against concurrent ingest of other arrays;
// the simulated cost of a query comes from the query package's Tracker,
// not from wall-clock time.
package cluster
