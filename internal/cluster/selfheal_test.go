package cluster

import (
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/transport"
)

// latestAnnouncements registers a sink on c that keeps each node's latest
// announcement, and returns a snapshot function over them.
func latestAnnouncements(c *Cluster) func() map[partition.NodeID]transport.Announcement {
	var mu sync.Mutex
	last := make(map[partition.NodeID]transport.Announcement)
	c.SetAnnouncementSink(func(a transport.Announcement) {
		mu.Lock()
		last[a.Node] = a
		mu.Unlock()
	})
	return func() map[partition.NodeID]transport.Announcement {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(last)
	}
}

// TestHeartbeatNow pins the emission path: every non-coordinator node
// announces once per call, sequence numbers are strictly monotonic, and a
// transportless cluster is a no-op.
func TestHeartbeatNow(t *testing.T) {
	c := newTransportCluster(t, 3, 1, transport.NewLoopback())
	latest := latestAnnouncements(c)
	if sent := c.HeartbeatNow(); sent != 2 {
		t.Fatalf("HeartbeatNow sent %d, want 2 (non-coordinator nodes)", sent)
	}
	first := map[partition.NodeID]uint64{}
	for id, a := range latest() {
		if a.Seq == 0 {
			t.Errorf("node %d heartbeat carries seq 0", id)
		}
		first[id] = a.Seq
	}
	if len(first) != 2 {
		t.Fatalf("announcements from %d nodes, want 2", len(first))
	}
	c.HeartbeatNow()
	for id, a := range latest() {
		if a.Seq <= first[id] {
			t.Errorf("node %d seq did not advance: %d then %d", id, first[id], a.Seq)
		}
	}
}

// TestHeartbeatSeqSurvivesTopologyChange: the lock-free node snapshot is
// republished on scale-out, so new nodes beat too and existing counters
// keep counting.
func TestHeartbeatSeqSurvivesTopologyChange(t *testing.T) {
	c := newTransportCluster(t, 2, 1, transport.NewLoopback())
	latest := latestAnnouncements(c)
	c.HeartbeatNow()
	plan, err := c.PlanScaleOut(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	if sent := c.HeartbeatNow(); sent != 3 {
		t.Fatalf("after scale-out HeartbeatNow sent %d, want 3", sent)
	}
	anns := latest()
	if len(anns) != 3 {
		t.Fatalf("announcements from %d nodes, want 3", len(anns))
	}
}

// TestAnnouncementSink pins the supervisor's intake seam: the registered
// sink observes every announcement, heartbeats included, outside the
// cluster's locks.
func TestAnnouncementSink(t *testing.T) {
	c := newTransportCluster(t, 3, 1, transport.NewLoopback())
	var mu sync.Mutex
	var got []transport.Announcement
	c.SetAnnouncementSink(func(a transport.Announcement) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	})
	sent := c.HeartbeatNow()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != sent {
		t.Fatalf("sink saw %d announcements, %d were sent", len(got), sent)
	}
	for _, a := range got {
		if a.Seq == 0 {
			t.Errorf("sink saw node %d announcement without a seq", a.Node)
		}
	}
}

// TestStartHeartbeatsStops: the timer loop runs and its stop function is
// idempotent and synchronous.
func TestStartHeartbeatsStops(t *testing.T) {
	c := newTransportCluster(t, 2, 1, transport.NewLoopback())
	latest := latestAnnouncements(c)
	stop := c.StartHeartbeats(time.Millisecond)
	defer stop()
	deadline := 0
	for {
		if a, ok := latest()[c.Nodes()[1]]; ok && a.Seq >= 2 {
			break
		}
		if deadline++; deadline > 5000 {
			t.Fatal("heartbeat loop never emitted")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestSuspectLifecycle walks the advisory state: validation, idempotence,
// Validate's report, and the hand-offs to FailNode and ClearNodeSuspect.
func TestSuspectLifecycle(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	if err := c.MarkNodeSuspect(99); err == nil {
		t.Error("suspecting an unknown node must error")
	}
	if err := c.MarkNodeSuspect(c.Coordinator()); err == nil {
		t.Error("suspecting the coordinator must error")
	}
	var victim partition.NodeID
	for _, id := range c.Nodes() {
		if id != c.Coordinator() {
			victim = id
			break
		}
	}
	if err := c.MarkNodeSuspect(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkNodeSuspect(victim); err != nil {
		t.Errorf("re-suspecting must be idempotent: %v", err)
	}
	if got := c.SuspectNodes(); len(got) != 1 || got[0] != victim {
		t.Fatalf("SuspectNodes = %v, want [%d]", got, victim)
	}
	if h, _ := c.NodeHealthOf(victim); h != NodeSuspect {
		t.Fatalf("health = %v, want NodeSuspect", h)
	}
	// Suspect is advisory: the node still serves, so it is not Degraded...
	if c.Degraded() {
		t.Error("suspect node must not make the cluster Degraded")
	}
	// ...but Validate surfaces the open verdict.
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "suspect") {
		t.Fatalf("Validate with a suspect node = %v, want suspect report", err)
	}
	if err := c.ClearNodeSuspect(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.ClearNodeSuspect(victim); err != nil {
		t.Errorf("clearing a healthy node must be idempotent: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after clearing: %v", err)
	}

	// The detector's Down verdict supersedes suspicion directly.
	if err := c.MarkNodeSuspect(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(victim); err != nil {
		t.Fatalf("FailNode on a suspect node: %v", err)
	}
	if got := c.SuspectNodes(); len(got) != 0 {
		t.Fatalf("SuspectNodes after FailNode = %v, want none", got)
	}
	if err := c.MarkNodeSuspect(victim); err == nil {
		t.Error("suspecting a down node must error")
	}
	if err := c.ClearNodeSuspect(victim); err == nil {
		t.Error("clearing a down node must error (RecoverNode's job)")
	}
}

// TestRecoverNodeRestoresSecondarySpread is the PR 6 follow-up pinned: the
// instant a node is readmitted it holds its canonical rendezvous share of
// the secondary set — not zero copies until some later rebalance.
func TestRecoverNodeRestoresSecondarySpread(t *testing.T) {
	c := newReplicatedCluster(t, 4, 2)
	chunks := makeChunks(t, 40, 8, 17)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	vnode, _ := c.Node(victim)
	if vnode.NumReplicas() == 0 {
		t.Fatal("readmitted node holds zero secondaries; canonical share not restored")
	}
	// Every chunk's catalogued secondary set must be exactly the canonical
	// rendezvous choice over the healthy nodes, and each copy must exist.
	healthy := c.HealthyNodes()
	for _, ch := range chunks {
		key := ch.Key()
		owner, ok := c.Owner(key)
		if !ok {
			t.Fatalf("chunk %s lost from catalog", ch.Ref())
		}
		want := partition.ReplicaNodes(key, owner, healthy, nil, 1)
		got := c.ReplicaHolders(key)
		if len(got) != len(want) {
			t.Fatalf("chunk %s has %d secondaries, want %d", ch.Ref(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %s secondaries = %v, want canonical %v", ch.Ref(), got, want)
			}
			holder, _ := c.Node(got[i])
			if _, ok := holder.Replica(ch.Ref()); !ok {
				t.Fatalf("node %d catalogued for %s but holds no copy", got[i], ch.Ref())
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
}

// TestRecoverNodeRetryableAfterTransientFault: a readmission that dies
// mid-way through the replica restore leaves the node Down, so a retry of
// RecoverNode is well-formed and completes the restore — the supervisor's
// readmit retry loop depends on this.
func TestRecoverNodeRetryableAfterTransientFault(t *testing.T) {
	ft := transport.NewFaultTransport(transport.NewLoopback())
	c := newTransportCluster(t, 4, 2, ft)
	if _, err := c.Insert(makeChunks(t, 40, 8, 23)); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	ft.FailNextPushes(1 << 20)
	if _, err := c.RecoverNode(victim); err == nil {
		t.Fatal("RecoverNode should fail while every push drops")
	}
	if h, _ := c.NodeHealthOf(victim); h != NodeDown {
		t.Fatalf("failed readmission left node health %v, want Down", h)
	}
	if !c.Degraded() {
		t.Fatal("failed readmission should leave the cluster degraded")
	}
	ft.FailNextPushes(0)
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatalf("retry after disarming faults: %v", err)
	}
	if h, _ := c.NodeHealthOf(victim); h != NodeHealthy {
		t.Fatalf("retried readmission left node health %v, want Healthy", h)
	}
	vnode, _ := c.Node(victim)
	if vnode.NumReplicas() == 0 {
		t.Fatal("readmitted node holds zero secondaries after retry")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-retry Validate: %v", err)
	}
}

// TestErrStalePlanIdentity: executing a plan across a topology change fails
// with the sentinel, matchable by errors.Is.
func TestErrStalePlanIdentity(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2)
	chunks := makeChunks(t, 10, 8, 19)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	victim := pickVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNode(victim); err != nil { // bumps the epoch
		t.Fatal(err)
	}
	_, err = c.ExecuteRebalance(plan)
	if !errors.Is(err, ErrStalePlan) {
		t.Fatalf("stale execute = %v, want ErrStalePlan", err)
	}
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale error text %q must keep the word 'stale'", err)
	}
}
