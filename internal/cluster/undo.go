package cluster

import (
	"fmt"
	"slices"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// undoLog is the one rollback mechanism: every step of a multi-step
// mutation that commits pushes its inverse, and a failure unwinds the log
// newest-first, leaving the cluster exactly as it was. Ingest execution,
// rebalance execution (PlanScaleOut, PlanMigrate and PlanRecover plans),
// ReplicateArray and node readmission roll back through it. Inverses are
// logged per committed step — a delivered batch, a promoted chunk — never
// per chunk of a batch; a step that fails logs nothing, because
// receiver-atomic delivery guarantees it left nothing behind.
type undoLog []func()

func (u *undoLog) push(inverse func()) { *u = append(*u, inverse) }

// unwind runs the logged inverses, newest first.
func (u undoLog) unwind() {
	for i := len(u) - 1; i >= 0; i-- {
		u[i]()
	}
}

// replicaCopy is one replica payload a node must receive — a secondary of
// a primary or a replicated-array chunk — and the node that sends it.
type replicaCopy struct {
	from, to partition.NodeID
	ch       *array.Chunk
}

// shipReplicas is the one path a new replica copy takes between nodes: one
// KindReplica batch per (from, to) pair, pairs in first-appearance order,
// each retried like every push and, once delivered, logged in undo with
// taking its chunks back as the inverse. It returns the frame bytes that
// crossed the wire. The chunks must stay unmodified while the log is live.
func (c *Cluster) shipReplicas(copies []replicaCopy, undo *undoLog) (int64, error) {
	type pair struct{ from, to partition.NodeID }
	var order []pair
	batches := make(map[pair][]*array.Chunk)
	for _, cp := range copies {
		p := pair{cp.from, cp.to}
		if _, ok := batches[p]; !ok {
			order = append(order, p)
		}
		batches[p] = append(batches[p], cp.ch)
	}
	var frames int64
	for _, p := range order {
		chunks := batches[p]
		wire, err := c.pushWithRetry(p.from, p.to, transport.KindReplica, chunks)
		frames += wire
		if err != nil {
			return frames, fmt.Errorf("cluster: replica batch from node %d to node %d: %w", p.from, p.to, err)
		}
		undo.push(func() {
			for _, ch := range chunks {
				c.nodes[p.to].takeReplica(ch.Key())
			}
		})
	}
	return frames, nil
}

// foldCopies adds each copy's payload to its receiver's volume and returns
// the total: the replica share of the Eq 7 charge.
func foldCopies(recv map[partition.NodeID]int64, copies []replicaCopy) int64 {
	var total int64
	for _, cp := range copies {
		size := cp.ch.SizeBytes()
		recv[cp.to] += size
		total += size
	}
	return total
}

// replicatedGaps is the one rule that keeps the replicated arrays whole:
// every healthy node gets every registered replicated-array chunk it
// lacks, sent from the coordinator. That covers nodes a scale-out adds, a
// readmitted node, and nodes a failed or discarded scale-out provisioned.
// Caller holds admin exclusive.
func (c *Cluster) replicatedGaps() []replicaCopy {
	var copies []replicaCopy
	coord := c.Coordinator()
	for _, id := range c.HealthyNodes() {
		for _, rep := range c.repChunks {
			if _, ok := c.nodes[id].Replica(rep.Ref()); !ok {
				copies = append(copies, replicaCopy{coord, id, rep})
			}
		}
	}
	return copies
}

// respread re-derives one primary's secondary set canonically — the
// rendezvous holders for owner over healthy — and returns the copies the
// canonical holders lack, sent from owner. Reachable recorded holders
// outside the canonical set drop their copies and the catalog takes the
// canonical set, both logged in undo. Caller holds admin exclusive.
func (c *Cluster) respread(ch *array.Chunk, owner partition.NodeID, healthy []partition.NodeID, want int, undo *undoLog) []replicaCopy {
	key, ref := ch.Key(), ch.Ref()
	recorded := c.owner.Replicas(key)
	canonical := partition.ReplicaNodes(key, owner, healthy, nil, want)
	var copies []replicaCopy
	for _, n := range canonical {
		if _, held := c.nodes[n].Replica(ref); !held || !slices.Contains(recorded, n) {
			copies = append(copies, replicaCopy{owner, n, ch})
		}
	}
	for _, h := range recorded {
		if holder := c.nodes[h]; holder.Health() != NodeDown && !slices.Contains(canonical, h) {
			if rep, ok := holder.takeReplica(key); ok {
				undo.push(func() { holder.putReplica(rep) })
			}
		}
	}
	c.owner.SetReplicas(key, canonical)
	undo.push(func() { c.owner.SetReplicas(key, recorded) })
	return copies
}
