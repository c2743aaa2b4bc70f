package integration

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/partition"
	"repro/internal/supervisor"
	"repro/internal/transport"
)

// drillOptions are the supervised-drill timings: fast enough that the full
// detect→fail→recover→readmit cycle completes in a couple of seconds, slow
// enough that a loaded -race CI box does not false-positive between beats
// (suspect tolerates 15 missed 20ms beats, down 40).
func drillOptions() supervisor.Options {
	return supervisor.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		Detector: detector.Options{
			SuspectAfter: 300 * time.Millisecond,
			DownAfter:    800 * time.Millisecond,
		},
		Quarantine: 200 * time.Millisecond,
	}
}

// waitEvent blocks until the supervisor has logged at least n events of the
// given kind, failing the test after the deadline. It polls every
// millisecond, so BenchmarkSupervisedFailover's timings are not rounded up
// by much more than that.
func waitEvent(t testing.TB, s *supervisor.Supervisor, kind supervisor.EventKind, n int, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if s.EventCount(kind) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d %v event(s) within %v; events: %v", n, kind, deadline, s.Events())
}

// manualDrillStages replays the operator-driven drill on an in-process
// cluster and returns the recovered and readmitted fingerprints — the
// ground truth the supervised run must reproduce byte for byte.
func manualDrillStages(t *testing.T) (victim partition.NodeID, recovered, readmitted map[string]string, answers map[string][2]float64) {
	t.Helper()
	c, cycle := modisCluster(t, 2)
	answers = suiteAnswers(t, c, cycle)
	victim = drillVictim(t, c)
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
	recovered = clusterFingerprint(t, c)
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	readmitted = clusterFingerprint(t, c)
	return victim, recovered, readmitted, answers
}

// TestSupervisedKillANodeDrillOverTCP is the PR's headline: the MODIS
// workload on real sockets, a node killed by cutting its links, and the
// cluster converging back to Validate-clean with ZERO manual health calls —
// no FailNode, no PlanRecover, no RecoverNode anywhere in the supervised
// path. Every stage must be byte-identical to the operator-driven drill,
// query answers included.
func TestSupervisedKillANodeDrillOverTCP(t *testing.T) {
	wantVictim, wantRecovered, wantReadmitted, wantAnswers := manualDrillStages(t)

	faults := transport.NewFaultTransport(transport.NewTCP(transport.TCPOptions{}))
	c, cycle := modisClusterOver(t, 2, faults, 0)
	sup, err := supervisor.New(c, drillOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	victim := drillVictim(t, c)
	if victim != wantVictim {
		t.Fatalf("supervised drill picked victim %d, manual baseline %d", victim, wantVictim)
	}
	faults.IsolateNode(victim, transport.LinkAll)

	// The supervisor alone: suspect → down → fail → plan → rebalance.
	waitEvent(t, sup, supervisor.EventRecovered, 1, 30*time.Second)
	if health, _ := c.NodeHealthOf(victim); health != cluster.NodeDown {
		t.Fatalf("victim health = %v after recovery, want Down", health)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-recovery Validate: %v", err)
	}
	requireSameState(t, "supervised-recovered", wantRecovered, clusterFingerprint(t, c))
	requireSameAnswers(t, "supervised-recovered", wantAnswers, suiteAnswers(t, c, cycle))

	// The node returns; the supervisor quarantines, then readmits it.
	faults.HealNode(victim)
	waitEvent(t, sup, supervisor.EventReadmitted, 1, 30*time.Second)
	if health, _ := c.NodeHealthOf(victim); health != cluster.NodeHealthy {
		t.Fatalf("victim health = %v after readmission, want Healthy", health)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
	requireSameState(t, "supervised-readmitted", wantReadmitted, clusterFingerprint(t, c))
	requireSameAnswers(t, "supervised-readmitted", wantAnswers, suiteAnswers(t, c, cycle))

	if n := sup.EventCount(supervisor.EventGaveUp); n != 0 {
		t.Fatalf("supervisor gave up during the drill: %v", sup.Events())
	}
}

// BenchmarkSupervisedFailover times the supervisor's unattended failover on
// the MODIS drill cluster at R=2, with beat and detector thresholds scaled
// down so one cycle takes tens of milliseconds:
//   - detect_to_recover/loopback: links cut → EventRecovered in process,
//     the detection and recovery machinery with no wire cost;
//   - failover_readmit/tcp: the full cycle on real sockets, cut →
//     recovered → heal → EventReadmitted.
//
// Cluster setup and teardown are outside the timed region.
func BenchmarkSupervisedFailover(b *testing.B) {
	opts := supervisor.Options{
		HeartbeatInterval: 5 * time.Millisecond,
		Detector: detector.Options{
			SuspectAfter: 30 * time.Millisecond,
			DownAfter:    60 * time.Millisecond,
		},
		Quarantine: 20 * time.Millisecond,
	}
	failover := func(b *testing.B, inner transport.Transport, readmit bool) {
		b.StopTimer()
		faults := transport.NewFaultTransport(inner)
		c, _ := modisClusterOver(b, 2, faults, 0)
		sup, err := supervisor.New(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := sup.Start(); err != nil {
			b.Fatal(err)
		}
		defer func() {
			sup.Stop()
			_ = c.Close()
		}()
		victim := drillVictim(b, c)
		b.StartTimer()
		faults.IsolateNode(victim, transport.LinkAll)
		waitEvent(b, sup, supervisor.EventRecovered, 1, 30*time.Second)
		if readmit {
			faults.HealNode(victim)
			waitEvent(b, sup, supervisor.EventReadmitted, 1, 30*time.Second)
		}
		b.StopTimer()
	}
	b.Run("detect_to_recover/loopback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			failover(b, transport.NewLoopback(), false)
		}
	})
	b.Run("failover_readmit/tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			failover(b, transport.NewTCP(transport.TCPOptions{}), true)
		}
	})
}

// TestSupervisedChaosDrill is the drill under 30% push drops (meant for
// -race): injected wire faults hit both the workload's transfers and the
// supervisor's recovery transfers, and the retry stack — per-transfer,
// whole-batch, and the supervisor's replan loop — must still converge to
// the byte-identical healed state with no operator in the loop.
func TestSupervisedChaosDrill(t *testing.T) {
	wantVictim, _, wantReadmitted, wantAnswers := manualDrillStages(t)

	faults := transport.NewFaultTransport(transport.NewTCP(transport.TCPOptions{}))
	faults.SetDropRate(0.3, 7)
	c, cycle := modisClusterOver(t, 2, faults, 10)
	sup, err := supervisor.New(c, drillOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	victim := drillVictim(t, c)
	if victim != wantVictim {
		t.Fatalf("chaos drill picked victim %d, manual baseline %d", victim, wantVictim)
	}
	faults.IsolateNode(victim, transport.LinkAll)
	waitEvent(t, sup, supervisor.EventRecovered, 1, 60*time.Second)
	faults.HealNode(victim)
	waitEvent(t, sup, supervisor.EventReadmitted, 1, 60*time.Second)

	faults.SetDropRate(0, 0) // disarm before verification reads
	if faults.Injected() == 0 {
		t.Error("chaos drill injected no faults; drop rate never fired")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-chaos Validate: %v", err)
	}
	requireSameState(t, "chaos-readmitted", wantReadmitted, clusterFingerprint(t, c))
	requireSameAnswers(t, "chaos-readmitted", wantAnswers, suiteAnswers(t, c, cycle))
}

// TestSupervisedHeartbeatOnlyLoss: only the victim's control plane is cut —
// data links keep working. The detector must still fail the node over (it
// cannot tell a dead process from a dead control link), queries must stay
// byte-identical throughout, and healing the link must readmit the node.
func TestSupervisedHeartbeatOnlyLoss(t *testing.T) {
	faults := transport.NewFaultTransport(transport.NewLoopback())
	c, cycle := modisClusterOver(t, 2, faults, 0)
	baseline := suiteAnswers(t, c, cycle)
	sup, err := supervisor.New(c, drillOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	victim := drillVictim(t, c)
	faults.IsolateNode(victim, transport.LinkAnnounce)
	waitEvent(t, sup, supervisor.EventRecovered, 1, 30*time.Second)
	if err := c.Validate(); err != nil {
		t.Fatalf("post-recovery Validate: %v", err)
	}
	requireSameAnswers(t, "heartbeat-loss", baseline, suiteAnswers(t, c, cycle))

	faults.HealNode(victim)
	waitEvent(t, sup, supervisor.EventReadmitted, 1, 30*time.Second)
	if err := c.Validate(); err != nil {
		t.Fatalf("post-readmission Validate: %v", err)
	}
	requireSameAnswers(t, "heartbeat-loss-readmitted", baseline, suiteAnswers(t, c, cycle))
}

// TestSupervisedNoFalsePositives: the whole workload — ingest, a
// scale-out, the query suite — runs under a supervisor with production-ish
// thresholds and NO injected silence. The detector must never suspect
// anyone: zero Suspect, zero Down, zero cluster mutations from the
// supervisor.
func TestSupervisedNoFalsePositives(t *testing.T) {
	faults := transport.NewFaultTransport(transport.NewTCP(transport.TCPOptions{}))
	c, cycle := modisClusterOver(t, 2, faults, 10)
	sup, err := supervisor.New(c, supervisor.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		Detector: detector.Options{
			SuspectAfter: 2 * time.Second,
			DownAfter:    5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := c.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = suiteAnswers(t, c, cycle)
	time.Sleep(500 * time.Millisecond) // a few hundred beats of steady state

	if n := sup.EventCount(supervisor.EventSuspect); n != 0 {
		t.Errorf("false positive: %d suspect verdict(s): %v", n, sup.Events())
	}
	if n := sup.EventCount(supervisor.EventDown); n != 0 {
		t.Errorf("false positive: %d down verdict(s): %v", n, sup.Events())
	}
	if got := c.SuspectNodes(); len(got) != 0 {
		t.Errorf("nodes left suspect with no faults: %v", got)
	}
}
