package cluster

import (
	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// undoLog is the one rollback mechanism: every step of a multi-step
// mutation that commits pushes its inverse, and a failure unwinds the log
// newest-first, leaving the cluster exactly as it was. Ingest execution,
// rebalance execution (PlanScaleOut, PlanMigrate and PlanRecover plans) and
// node readmission roll back through it. Inverses are logged per committed
// step — a delivered batch, a promoted chunk — never per chunk of a batch;
// a step that fails logs nothing, because receiver-atomic delivery
// guarantees it left nothing behind.
type undoLog []func()

func (u *undoLog) push(inverse func()) { *u = append(*u, inverse) }

// unwind runs the logged inverses, newest first.
func (u undoLog) unwind() {
	for i := len(u) - 1; i >= 0; i-- {
		u[i]()
	}
}

// pushReplicas ships secondary copies to one node as a single KindReplica
// batch (retried like every push) and logs taking them back as its
// inverse. chunks must stay unmodified while the log is live.
func (c *Cluster) pushReplicas(from, to partition.NodeID, chunks []*array.Chunk, undo *undoLog) (int64, error) {
	wire, err := c.pushWithRetry(from, to, transport.KindReplica, chunks)
	if err == nil {
		undo.push(func() {
			for _, ch := range chunks {
				c.nodes[to].takeReplica(ch.Key())
			}
		})
	}
	return wire, err
}
