package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// nthPushFault is a FaultTransport that starts dropping every push — a
// persistent fault, outlasting any retry budget — at the moment the n-th
// push of one kind is attempted, so a multi-step operation can be failed
// at each of its steps in turn.
type nthPushFault struct {
	*transport.FaultTransport

	mu    sync.Mutex
	kind  transport.BatchKind
	left  int // pushes of kind still let through once armed
	armed bool
	fired bool
}

func (f *nthPushFault) PushChunks(from, to partition.NodeID, kind transport.BatchKind, chunks []*array.Chunk) (int64, error) {
	f.mu.Lock()
	if f.armed && !f.fired && kind == f.kind {
		if f.left == 0 {
			f.fired = true
			f.FailNextPushes(1 << 20)
		}
		f.left--
	}
	f.mu.Unlock()
	return f.FaultTransport.PushChunks(from, to, kind, chunks)
}

// undoScenario brings a fresh cluster to the state just before one
// multi-step operation and returns that operation.
type undoScenario struct {
	name  string
	nodes int
	kinds []transport.BatchKind // the push kinds the operation issues
	setup func(t *testing.T, c *Cluster) (op func() error)
	// tolerate, when set, is the one Validate complaint a failed run may
	// leave behind.
	tolerate string
}

func failAndRecover(t *testing.T, c *Cluster) partition.NodeID {
	t.Helper()
	if _, err := c.Insert(makeChunks(t, 40, 8, 23)); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	return victim
}

func planAndRecover(c *Cluster, victim partition.NodeID) func() error {
	return func() error {
		plan, err := c.PlanRecover(victim)
		if err != nil {
			return err
		}
		_, err = c.ExecuteRebalance(plan)
		return err
	}
}

var undoScenarios = []undoScenario{
	{
		name: "ingest", nodes: 4,
		kinds: []transport.BatchKind{transport.KindIngest, transport.KindReplica},
		setup: func(t *testing.T, c *Cluster) func() error {
			if _, err := c.Insert(makeChunksIn(t, 24, 8, 5, 0, 8)); err != nil {
				t.Fatal(err)
			}
			batch := makeChunksIn(t, 40, 8, 9, 8, 16)
			return func() error { _, err := c.Insert(batch); return err }
		},
	},
	{
		// KindReplica pushes are the replicated-array copies to the added
		// nodes, KindRebalance the receiver groups.
		name: "scale-out", nodes: 2,
		kinds: []transport.BatchKind{transport.KindReplica, transport.KindRebalance},
		setup: func(t *testing.T, c *Cluster) func() error {
			if _, err := c.ReplicateArray(replicatedFixture()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert(makeChunks(t, 40, 8, 3)); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := c.ScaleOut(2); return err }
		},
		// The nodes a failed scale-out provisioned stand (monotonic
		// growth), and the undo took their replicated-array copies back;
		// the retry's rebalance fills them (replicatedGaps).
		tolerate: "misses replicated-array chunk",
	},
	{
		// One KindReplica batch from the coordinator to each healthy
		// node, itself included.
		name: "replicate-array", nodes: 4,
		kinds: []transport.BatchKind{transport.KindReplica},
		setup: func(t *testing.T, c *Cluster) func() error {
			if _, err := c.Insert(makeChunks(t, 24, 8, 13)); err != nil {
				t.Fatal(err)
			}
			rs, reps := replicatedFixture()
			return func() error { _, err := c.ReplicateArray(rs, reps); return err }
		},
	},
	{
		name: "recovery", nodes: 4,
		kinds: []transport.BatchKind{transport.KindReplica}, // the fills
		setup: func(t *testing.T, c *Cluster) func() error {
			return planAndRecover(c, failAndRecover(t, c))
		},
	},
	{
		name: "readmit", nodes: 4,
		kinds: []transport.BatchKind{transport.KindReplica},
		setup: func(t *testing.T, c *Cluster) func() error {
			victim := failAndRecover(t, c)
			if err := planAndRecover(c, victim)(); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := c.RecoverNode(victim); return err }
		},
	},
}

func newUndoCluster(t *testing.T, nodes int, tr transport.Transport) *Cluster {
	t.Helper()
	c, err := New(Config{
		InitialNodes:      nodes,
		NodeCapacity:      10 << 20,
		Partitioner:       consistentFactory,
		ReplicationFactor: 2,
		TransferRetries:   2,
		TransferBackoff:   time.Microsecond,
		Transport:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

// undoSnapshot is what a failed operation must leave untouched: the state
// fingerprint and the audit's verdict (recovery starts from a degraded
// cluster, which Validate reports as such before and after).
type undoSnapshot struct {
	state map[string]string
	audit string
}

func auditString(c *Cluster) string {
	if err := c.Validate(); err != nil {
		return err.Error()
	}
	return "clean"
}

func snapshotForUndo(t *testing.T, c *Cluster) undoSnapshot {
	return undoSnapshot{state: fingerprint(t, c), audit: auditString(c)}
}

// checkUndone asserts a failed operation left no trace — the fingerprint
// and the audit are the pre-operation ones — and that the operation then
// completes, audit clean, once the fault is gone.
func checkUndone(t *testing.T, c *Cluster, sc undoScenario, before undoSnapshot, op func() error) {
	t.Helper()
	tolerated := func(audit string) bool {
		return sc.tolerate != "" && strings.Contains(audit, sc.tolerate)
	}
	if got := auditString(c); got != before.audit && !tolerated(got) {
		t.Fatalf("Validate after the failed run: %s; before the operation: %s", got, before.audit)
	}
	diffFingerprints(t, before.state, fingerprint(t, c))
	if err := op(); err != nil {
		t.Fatalf("retry without the fault: %v", err)
	}
	if got := auditString(c); got != "clean" && !tolerated(got) {
		t.Fatalf("Validate after the retry: %s", got)
	}
}

// TestUndoLogRestoresStateAtEveryStep fails ingest, scale-out,
// ReplicateArray, recovery and readmission at each push they issue in turn
// (primary push k, replica batch k, receiver group k), on the in-process
// backend under a FaultTransport, and demands the undo log leave the
// cluster byte-identical to its pre-operation state every time.
func TestUndoLogRestoresStateAtEveryStep(t *testing.T) {
	for _, sc := range undoScenarios {
		for _, kind := range sc.kinds {
			t.Run(sc.name+"/"+kind.String(), func(t *testing.T) {
				for nth := 0; ; nth++ {
					ft := &nthPushFault{FaultTransport: transport.NewFaultTransport(nil), kind: kind, left: nth}
					c := newUndoCluster(t, sc.nodes, ft)
					op := sc.setup(t, c)
					before := snapshotForUndo(t, c)
					ft.armed = true
					err := op()
					if !ft.fired {
						// The operation has fewer than nth+1 such pushes.
						if err != nil {
							t.Fatalf("unfaulted run: %v", err)
						}
						if nth < 2 {
							t.Fatalf("operation issued only %d %s push(es); fixture too small", nth, kind)
						}
						return
					}
					if !errors.Is(err, ErrInjected) {
						t.Fatalf("%s push %d dropped for good: operation returned %v, want ErrInjected", kind, nth, err)
					}
					ft.FailNextPushes(0)
					checkUndone(t, c, sc, before, op)
				}
			})
		}
	}
}

// TestUndoLogRestoresStateOnPromotionFault fails recovery at each replica
// promotion in turn — a store write, not a push — with a FaultStore on the
// promoting host.
func TestUndoLogRestoresStateOnPromotionFault(t *testing.T) {
	sc := undoScenario{name: "recovery", nodes: 4}
	for k := 0; ; k++ {
		c := newUndoCluster(t, sc.nodes, nil)
		victim := failAndRecover(t, c)
		before := snapshotForUndo(t, c)
		plan, err := c.PlanRecover(victim)
		if err != nil {
			t.Fatal(err)
		}
		var promotions []recoverOp
		for _, op := range plan.recovers {
			if op.promote {
				promotions = append(promotions, op)
			}
		}
		if k == len(promotions) {
			plan.Discard()
			if k < 2 {
				t.Fatalf("plan promotes only %d chunk(s); fixture too small", k)
			}
			return
		}
		host := c.nodes[promotions[k].host]
		fs := NewFaultStore(host.store)
		fs.FailPuts(promotions[k].ref, -1)
		host.store = fs
		if _, err := c.ExecuteRebalance(plan); !errors.Is(err, ErrInjected) {
			t.Fatalf("promotion %d: ExecuteRebalance returned %v, want ErrInjected", k, err)
		}
		fs.FailPuts(promotions[k].ref, 0)
		checkUndone(t, c, sc, before, planAndRecover(c, victim))
	}
}
