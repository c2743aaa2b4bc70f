package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/detector"
	"repro/internal/provision"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

func modisGen(t *testing.T, cycles int) *workload.MODIS {
	t.Helper()
	g, err := workload.NewMODIS(workload.MODISConfig{Cycles: cycles, BaseCells: 12})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func aisGen(t *testing.T, cycles int) *workload.AIS {
	t.Helper()
	g, err := workload.NewAIS(workload.AISConfig{Cycles: cycles, CellsPerCycle: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func capacityFor(t *testing.T, g workload.Generator, fractionOfTotal int) int64 {
	t.Helper()
	_, total, err := workload.TotalBytes(g)
	if err != nil {
		t.Fatal(err)
	}
	return total/int64(fractionOfTotal) + 1
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Error("nil generator should fail")
	}
	g := modisGen(t, 2)
	if _, err := NewEngine(g, Config{PartitionerKind: "nope", InitialNodes: 2, NodeCapacity: 1 << 20}); err == nil {
		t.Error("unknown partitioner should fail")
	}
	if _, err := NewEngine(g, Config{PartitionerKind: "kdtree", InitialNodes: 0, NodeCapacity: 1 << 20}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := NewEngine(g, Config{PartitionerKind: "kdtree", InitialNodes: 2, NodeCapacity: 1 << 20, FixedStep: -1}); err == nil {
		t.Error("negative step should fail")
	}
}

// TestEngineSupervise: Config.Supervise attaches and starts a supervisor
// on an in-process engine. Two cycles run under it and leave the cluster
// Validate-clean, and Close stops the heartbeat and poll loops without
// leaving a goroutine behind.
func TestEngineSupervise(t *testing.T) {
	before := runtime.NumGoroutine()
	g := modisGen(t, 2)
	eng, err := NewEngine(g, Config{
		PartitionerKind: "kdtree",
		InitialNodes:    2,
		NodeCapacity:    capacityFor(t, g, 3),
		FixedStep:       1,
		Supervise: &supervisor.Options{
			HeartbeatInterval: 2 * time.Millisecond,
			// A loaded test machine must not turn scheduling delay into
			// a failover mid-cycle.
			Detector: detector.Options{SuspectAfter: 5 * time.Second, DownAfter: 10 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.sup == nil {
		t.Fatal("Config.Supervise attached no supervisor")
	}
	if err := eng.sup.Start(); err == nil {
		t.Fatal("NewEngine attached the supervisor without starting it")
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the engine, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineContinuousAdvisor: an engine configured with AdviseArrays
// carries a live advisor whose graph follows every cycle's ingest and
// scale-out incrementally — after a full run, advising costs no rebuild
// beyond the warm-up one and matches the cold rebuild-per-call path.
func TestEngineContinuousAdvisor(t *testing.T) {
	g := modisGen(t, 5)
	eng, err := NewEngine(g, Config{
		PartitionerKind: "consistent",
		InitialNodes:    2,
		NodeCapacity:    capacityFor(t, g, 6),
		FixedStep:       2,
		MaxNodes:        8,
		AdviseArrays:    []string{"Band1", "Band2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	live := eng.Advisor()
	if live == nil {
		t.Fatal("AdviseArrays should attach a continuous advisor")
	}
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	warm, err := live.Advise(1000, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	warm.Plan.Discard()
	cold, err := advisor.Advise(eng.Cluster(), []string{"Band1", "Band2"}, 1000, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	cold.Plan.Discard()
	if warm.RemoteBytesBefore != cold.RemoteBytesBefore || warm.RemoteBytesAfter != cold.RemoteBytesAfter {
		t.Fatalf("continuous advisor diverged from rebuild: %d→%d vs %d→%d",
			warm.RemoteBytesBefore, warm.RemoteBytesAfter, cold.RemoteBytesBefore, cold.RemoteBytesAfter)
	}
	if len(warm.Moves) != len(cold.Moves) {
		t.Fatalf("continuous advisor proposes %d moves, rebuild %d", len(warm.Moves), len(cold.Moves))
	}
	if n := live.Rebuilds(); n != 1 {
		t.Fatalf("live advisor rebuilt %d times across the run; want the warm-up build only", n)
	}
	if _, err := NewEngine(modisGen(t, 2), Config{
		PartitionerKind: "consistent",
		InitialNodes:    2,
		NodeCapacity:    1 << 24,
		AdviseArrays:    []string{"NotAnArray"},
	}); err == nil {
		t.Error("advising an undefined array should fail engine construction")
	}
}

func TestFixedScheduleGrowsToCap(t *testing.T) {
	g := modisGen(t, 6)
	eng, err := NewEngine(g, Config{
		PartitionerKind: "kdtree",
		InitialNodes:    2,
		NodeCapacity:    capacityFor(t, g, 6),
		FixedStep:       2,
		MaxNodes:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("ran %d cycles, want 6", len(stats))
	}
	if eng.Cluster().NumNodes() < 4 || eng.Cluster().NumNodes() > 8 {
		t.Errorf("final nodes = %d, want growth within cap", eng.Cluster().NumNodes())
	}
	// Per-cycle bookkeeping invariants.
	for i, s := range stats {
		if s.Cycle != i {
			t.Errorf("stats[%d].Cycle = %d", i, s.Cycle)
		}
		if s.Insert <= 0 {
			t.Errorf("cycle %d: non-positive insert time", i)
		}
		if s.NodesAfter < s.NodesBefore {
			t.Errorf("cycle %d: cluster shrank", i)
		}
		if s.Added > 0 && s.Reorg <= 0 {
			t.Errorf("cycle %d: scale-out without reorg time", i)
		}
		if s.Added == 0 && s.MovedBytes != 0 {
			t.Errorf("cycle %d: moved bytes without scale-out", i)
		}
		if s.NodeSeconds() <= 0 {
			t.Errorf("cycle %d: non-positive Eq 1 cost", i)
		}
	}
	if err := eng.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunCycle(); err == nil {
		t.Error("running past the workload end should fail")
	}
}

func TestControllerDrivenStaircase(t *testing.T) {
	g := modisGen(t, 8)
	cap := capacityFor(t, g, 6)
	ctrl, err := provision.NewController(2, 3, float64(cap))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Config{
		PartitionerKind: "consistent",
		InitialNodes:    2,
		NodeCapacity:    cap,
		Controller:      ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The staircase property: demand never ends a cycle above capacity.
	for _, s := range stats {
		if float64(s.DemandBytes) > float64(s.NodesAfter)*float64(cap) {
			t.Errorf("cycle %d: demand %d above provisioned %d×%d", s.Cycle, s.DemandBytes, s.NodesAfter, cap)
		}
	}
	if eng.Cluster().NumNodes() <= 2 {
		t.Error("controller never scaled out")
	}
}

func TestQueriesRunWhenEnabled(t *testing.T) {
	g := aisGen(t, 3)
	eng, err := NewEngine(g, Config{
		PartitionerKind: "hilbert",
		InitialNodes:    2,
		NodeCapacity:    capacityFor(t, g, 4),
		RunQueries:      true,
		MaxNodes:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Query <= 0 {
			t.Errorf("cycle %d: benchmark did not run", s.Cycle)
		}
		if len(s.Suite.PerQuery) != 6 {
			t.Errorf("cycle %d: %d queries, want 6", s.Cycle, len(s.Suite.PerQuery))
		}
	}
	if TotalNodeSeconds(stats) <= 0 {
		t.Error("Eq 1 total must be positive")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []CycleStats {
		g := aisGen(t, 4)
		eng, err := NewEngine(g, Config{
			PartitionerKind: "kdtree",
			InitialNodes:    2,
			NodeCapacity:    capacityFor(t, g, 5),
			RunQueries:      true,
			MaxNodes:        8,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Insert != b[i].Insert || a[i].Reorg != b[i].Reorg || a[i].Query != b[i].Query ||
			a[i].RSD != b[i].RSD || a[i].MovedBytes != b[i].MovedBytes {
			t.Fatalf("cycle %d differs between identical runs", i)
		}
	}
}

func TestAppendNeverMovesData(t *testing.T) {
	g := modisGen(t, 5)
	eng, err := NewEngine(g, Config{
		PartitionerKind: "append",
		InitialNodes:    2,
		NodeCapacity:    capacityFor(t, g, 6),
		MaxNodes:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.MovedBytes != 0 {
			t.Errorf("cycle %d: append moved %d bytes", s.Cycle, s.MovedBytes)
		}
	}
}
