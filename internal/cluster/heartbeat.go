package cluster

import (
	"sync"
	"time"
)

// Heartbeats: every non-coordinator node periodically announces itself to
// the coordinator over the transport, stamping a monotonic sequence number
// the failure detector keys liveness off. The emission path is lock-free —
// it reads the liveNodes snapshot and per-node atomics only — so a long
// administrative operation (a big rebalance holding admin exclusive) never
// stalls heartbeats and cascades false suspicion.
//
// Heartbeats are emitted for every node the cluster still hosts in-process
// regardless of recorded health: a node the coordinator marked Down but
// whose process is actually alive keeps beating, which is exactly how the
// supervisor learns it may be readmitted. Killing a node for real means
// cutting its transport links (FaultTransport.IsolateNode, or an actual
// dead TCP endpoint) — then its heartbeats stop arriving, which is the
// point.

// publishLiveNodes rebuilds the lock-free node snapshot the heartbeat loop
// walks. Caller holds admin exclusive (or is inside New).
func (c *Cluster) publishLiveNodes() {
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	c.liveNodes.Store(out)
}

// HeartbeatNow emits one heartbeat from every non-coordinator node to the
// coordinator, best-effort, and reports how many were attempted. Lock-free:
// safe to call on a tight timer concurrently with ingest, queries and
// administration.
func (c *Cluster) HeartbeatNow() int {
	nodes, _ := c.liveNodes.Load().([]*Node)
	if len(nodes) == 0 {
		return 0
	}
	for _, node := range nodes[1:] {
		c.announce(node, nodes[0].ID)
	}
	return len(nodes) - 1
}

// StartHeartbeats emits heartbeats every interval until the returned stop
// function is called. Stop is idempotent and returns only after the loop
// has exited.
func (c *Cluster) StartHeartbeats(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.HeartbeatNow()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
