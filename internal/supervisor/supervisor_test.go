package supervisor

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/partition"
	"repro/internal/transport"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func testSchema() *array.Schema {
	s, err := array.NewSchema("A",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 63, ChunkInterval: 4},
			{Name: "y", Start: 0, End: 63, ChunkInterval: 4},
		})
	if err != nil {
		panic(err)
	}
	return s
}

func makeChunks(t testing.TB, n, cells int, seed int64) []*array.Chunk {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	var out []*array.Chunk
	for len(out) < n {
		cc := array.ChunkCoord{rng.Int63n(16), rng.Int63n(16)}
		if used[cc.Key()] {
			continue
		}
		used[cc.Key()] = true
		ch := array.NewChunk(s, cc)
		origin := s.ChunkOrigin(cc)
		for k := 0; k < cells; k++ {
			cell := array.Coord{origin[0] + int64(k%4), origin[1] + int64((k/4)%4)}
			ch.AppendCell(cell, []array.CellValue{{Float: rng.Float64()}})
		}
		out = append(out, ch)
	}
	return out
}

// harness is a fully deterministic supervised cluster: loopback transport
// under fault injection, a manual clock driving the detector, and the test
// driving heartbeats and polls by hand — no timers, no sleeps.
type harness struct {
	t   *testing.T
	c   *cluster.Cluster
	f   *transport.FaultTransport
	s   *Supervisor
	clk *detector.ManualClock
}

// Heartbeats every 100ms (emitted by the test), suspect at 400ms of
// silence, down at 1s, quarantine 250ms.
func newHarness(t *testing.T, nodes int, opts Options) *harness {
	t.Helper()
	f := transport.NewFaultTransport(transport.NewLoopback())
	c, err := cluster.New(cluster.Config{
		InitialNodes:      nodes,
		NodeCapacity:      10 << 20,
		ReplicationFactor: 2,
		Transport:         f,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 64), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	clk := detector.NewManualClock(t0)
	opts.Detector.Clock = clk
	opts.HeartbeatInterval = 100 * time.Millisecond
	if opts.Detector.SuspectAfter == 0 {
		opts.Detector.SuspectAfter = 400 * time.Millisecond
	}
	if opts.Detector.DownAfter == 0 {
		opts.Detector.DownAfter = time.Second
	}
	s, err := New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, c: c, f: f, s: s, clk: clk}
}

// step advances the clock, emits one heartbeat round, and polls — one
// supervision beat of the simulated world.
func (h *harness) step(d time.Duration) {
	h.clk.Advance(d)
	h.c.HeartbeatNow()
	h.s.Poll()
}

func (h *harness) victim() partition.NodeID {
	h.t.Helper()
	for _, id := range h.c.Nodes() {
		if id == h.c.Coordinator() {
			continue
		}
		node, _ := h.c.Node(id)
		if node.NumChunks() > 0 {
			return id
		}
	}
	h.t.Fatal("no non-coordinator node owns chunks")
	return 0
}

// TestSupervisedRecoveryEndToEnd is the tentpole drill in miniature: a node
// is cut off, and with ZERO manual health calls the supervisor suspects,
// fails, recovers, and — once the node beats again through quarantine —
// readmits it, leaving Validate clean at every settled point.
func TestSupervisedRecoveryEndToEnd(t *testing.T) {
	h := newHarness(t, 4, Options{})
	if _, err := h.c.Insert(makeChunks(t, 40, 8, 23)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.step(100 * time.Millisecond)
	}
	if got := h.s.Events(); len(got) != 0 {
		t.Fatalf("healthy cluster produced events: %v", got)
	}

	victim := h.victim()
	h.f.IsolateNode(victim, transport.LinkAll)
	for i := 0; i < 4; i++ { // 400ms of silence → suspect
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventSuspect); n != 1 {
		t.Fatalf("EventSuspect count = %d, want 1; events: %v", n, h.s.Events())
	}
	if got := h.c.SuspectNodes(); len(got) != 1 || got[0] != victim {
		t.Fatalf("SuspectNodes = %v, want [%d]", got, victim)
	}
	for i := 0; i < 6; i++ { // 1s of silence → down, recovery in the same poll
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventDown); n != 1 {
		t.Fatalf("EventDown count = %d; events: %v", n, h.s.Events())
	}
	if n := h.s.EventCount(EventFailed); n != 1 {
		t.Fatalf("EventFailed count = %d; events: %v", n, h.s.Events())
	}
	if n := h.s.EventCount(EventRecovered); n != 1 {
		t.Fatalf("EventRecovered count = %d; events: %v", n, h.s.Events())
	}
	if health, _ := h.c.NodeHealthOf(victim); health != cluster.NodeDown {
		t.Fatalf("victim health = %v, want Down", health)
	}
	if err := h.c.Validate(); err != nil {
		t.Fatalf("post-recovery Validate: %v", err)
	}
	vnode, _ := h.c.Node(victim)

	// The node comes back: quarantine, then automatic readmission.
	h.f.HealNode(victim)
	h.step(100 * time.Millisecond)
	if n := h.s.EventCount(EventAlive); n != 1 {
		t.Fatalf("EventAlive count = %d; events: %v", n, h.s.Events())
	}
	h.step(125 * time.Millisecond)
	h.step(125 * time.Millisecond) // 250ms since alive → quarantine served
	if n := h.s.EventCount(EventReadmitted); n != 1 {
		t.Fatalf("EventReadmitted count = %d; events: %v", n, h.s.Events())
	}
	if health, _ := h.c.NodeHealthOf(victim); health != cluster.NodeHealthy {
		t.Fatalf("victim health = %v, want Healthy", health)
	}
	if vnode.NumReplicas() == 0 {
		t.Error("readmitted node holds no secondaries; replica spread not restored")
	}
	if err := h.c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
	if n := h.s.EventCount(EventGaveUp); n != 0 {
		t.Fatalf("supervisor gave up: %v", h.s.Events())
	}
}

// TestSuspectClearsOnResumedBeats: heartbeat-only loss short of the down
// threshold ends in suspicion lifted, never in failover.
func TestSuspectClearsOnResumedBeats(t *testing.T) {
	h := newHarness(t, 3, Options{})
	if _, err := h.c.Insert(makeChunks(t, 12, 8, 29)); err != nil {
		t.Fatal(err)
	}
	victim := h.victim()
	h.f.IsolateNode(victim, transport.LinkAnnounce)
	for i := 0; i < 4; i++ {
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventSuspect); n != 1 {
		t.Fatalf("EventSuspect count = %d; events: %v", n, h.s.Events())
	}
	h.f.HealNode(victim)
	h.step(100 * time.Millisecond)
	if n := h.s.EventCount(EventSuspectCleared); n != 1 {
		t.Fatalf("EventSuspectCleared count = %d; events: %v", n, h.s.Events())
	}
	if got := h.c.SuspectNodes(); len(got) != 0 {
		t.Fatalf("SuspectNodes = %v, want none", got)
	}
	if n := h.s.EventCount(EventDown) + h.s.EventCount(EventFailed); n != 0 {
		t.Fatalf("suspicion escalated to failover: %v", h.s.Events())
	}
	if err := h.c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// killAndRecover drives one full down→recover→readmit cycle and returns
// how long the node waited in quarantine (alive → readmitted).
func killAndRecover(t *testing.T, h *harness, victim partition.NodeID) time.Duration {
	t.Helper()
	before := h.s.EventCount(EventReadmitted)
	h.f.IsolateNode(victim, transport.LinkAll)
	for i := 0; i < 10; i++ {
		h.step(100 * time.Millisecond)
	}
	h.f.HealNode(victim)
	h.step(100 * time.Millisecond) // alive
	aliveAt := h.clk.Now()
	for i := 0; i < 50; i++ {
		if h.s.EventCount(EventReadmitted) > before {
			return h.clk.Now().Sub(aliveAt)
		}
		h.step(125 * time.Millisecond)
	}
	t.Fatalf("node %d never readmitted: %v", victim, h.s.Events())
	return 0
}

// TestFlapDampingDoublesQuarantine: a node that dies again right after
// readmission waits twice as long the second time.
func TestFlapDampingDoublesQuarantine(t *testing.T) {
	h := newHarness(t, 4, Options{})
	if _, err := h.c.Insert(makeChunks(t, 40, 8, 31)); err != nil {
		t.Fatal(err)
	}
	victim := h.victim()
	first := killAndRecover(t, h, victim)
	if n := h.s.EventCount(EventQuarantined); n != 0 {
		t.Fatalf("first death counted as flapping: %v", h.s.Events())
	}
	second := killAndRecover(t, h, victim) // within FlapWindow of readmission
	if n := h.s.EventCount(EventQuarantined); n != 1 {
		t.Fatalf("EventQuarantined count = %d, want 1; events: %v", n, h.s.Events())
	}
	if second <= first {
		t.Fatalf("flapping node readmitted after %v, first wait was %v — quarantine did not grow", second, first)
	}
	if err := h.c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterTransientRecoveryFailure: a recovery whose transfers fail
// transiently is backed off and retried, then succeeds — with the retry
// visible in the event log.
func TestRetryAfterTransientRecoveryFailure(t *testing.T) {
	h := newHarness(t, 4, Options{})
	if _, err := h.c.Insert(makeChunks(t, 40, 8, 37)); err != nil {
		t.Fatal(err)
	}
	victim := h.victim()
	h.f.IsolateNode(victim, transport.LinkAll)
	h.f.FailNextPushes(1 << 20) // recovery's re-replication pushes all fail
	for i := 0; i < 10; i++ {
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventRetry); n == 0 {
		t.Fatalf("no EventRetry despite failing transfers: %v", h.s.Events())
	}
	if n := h.s.EventCount(EventRecovered); n != 0 {
		t.Fatalf("recovery committed despite failing transfers: %v", h.s.Events())
	}
	h.f.FailNextPushes(0) // fault clears
	for i := 0; i < 10 && h.s.EventCount(EventRecovered) == 0; i++ {
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventRecovered); n != 1 {
		t.Fatalf("EventRecovered count = %d after fault cleared; events: %v", n, h.s.Events())
	}
	if n := h.s.EventCount(EventGaveUp); n != 0 {
		t.Fatalf("supervisor gave up on a transient fault: %v", h.s.Events())
	}
	if err := h.c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGiveUpAfterMaxAttempts: a persistent fault exhausts the bounded
// retry budget and is recorded as EventGaveUp instead of looping forever.
func TestGiveUpAfterMaxAttempts(t *testing.T) {
	h := newHarness(t, 4, Options{MaxAttempts: 2})
	if _, err := h.c.Insert(makeChunks(t, 40, 8, 41)); err != nil {
		t.Fatal(err)
	}
	victim := h.victim()
	h.f.IsolateNode(victim, transport.LinkAll)
	h.f.FailNextPushes(1 << 30)
	for i := 0; i < 20; i++ {
		h.step(100 * time.Millisecond)
	}
	if n := h.s.EventCount(EventGaveUp); n != 1 {
		t.Fatalf("EventGaveUp count = %d, want 1; events: %v", n, h.s.Events())
	}
	if n := h.s.EventCount(EventRetry); n != 1 { // MaxAttempts 2 = 1 retry then give up
		t.Fatalf("EventRetry count = %d, want 1; events: %v", n, h.s.Events())
	}
}

// TestSupervisorAcceptsDefaultCluster: a cluster configured with no
// transport runs on a loopback one, which carries heartbeats like any
// other — the supervisor attaches to it and sees every node beat.
func TestSupervisorAcceptsDefaultCluster(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		InitialNodes: 3,
		NodeCapacity: 10 << 20,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 64), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Options{})
	if err != nil {
		t.Fatalf("supervisor over a default (in-process) cluster: %v", err)
	}
	if sent := c.HeartbeatNow(); sent != 2 {
		t.Fatalf("HeartbeatNow sent %d, want 2", sent)
	}
	s.Poll()
	status := s.det.Status()
	if len(status) != 2 {
		t.Fatalf("detector watches %d nodes, want 2", len(status))
	}
	for _, st := range status {
		if st.Beats != 1 || st.State != detector.Healthy {
			t.Errorf("node %d: %d beat(s) accepted, state %v; want 1, healthy", st.Node, st.Beats, st.State)
		}
	}
}

// TestStartStop smoke-checks the background loop plumbing: Start runs,
// double Start errors, Stop is idempotent and detaches the sink.
func TestStartStop(t *testing.T) {
	h := newHarness(t, 3, Options{})
	if err := h.s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.s.Start(); err == nil {
		t.Error("double Start must error")
	}
	h.s.Stop()
	h.s.Stop() // idempotent
	if err := h.s.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	h.s.Stop()
}
