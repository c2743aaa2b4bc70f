package integration

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/transport"
	"repro/internal/workload"
)

// modisCluster loads the full MODIS workload onto a fresh cluster at the
// given replication factor and returns it with the last cycle index.
func modisCluster(t *testing.T, replication int) (*cluster.Cluster, int) {
	t.Helper()
	return modisClusterOver(t, replication, nil, 0)
}

// modisClusterOver is modisCluster with a node transport and a transfer
// retry budget threaded through — nil/0 reproduce modisCluster exactly.
func modisClusterOver(t testing.TB, replication int, tr transport.Transport, retries int) (*cluster.Cluster, int) {
	t.Helper()
	gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: 3, BaseCells: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := workload.TotalBytes(gen)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		InitialNodes:      4,
		NodeCapacity:      total + 1,
		ReplicationFactor: replication,
		Transport:         tr,
		TransferRetries:   retries,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 16), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	for _, s := range gen.Schemas() {
		if err := c.DefineArray(s); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < gen.Cycles(); cycle++ {
		batch, err := gen.Batch(cycle)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(batch); err != nil {
			t.Fatal(err)
		}
	}
	return c, gen.Cycles() - 1
}

// drillVictim picks a non-coordinator node owning chunks.
func drillVictim(t testing.TB, c *cluster.Cluster) partition.NodeID {
	t.Helper()
	for _, id := range c.Nodes() {
		if id != c.Coordinator() && len(c.NodeChunks(id)) > 0 {
			return id
		}
	}
	t.Fatal("no non-coordinator node owns chunks")
	return 0
}

func suiteAnswers(t *testing.T, c *cluster.Cluster, cycle int) map[string][2]float64 {
	t.Helper()
	res, err := query.MODISSuite(c, cycle)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2]float64, len(res.PerQuery))
	for name, q := range res.PerQuery {
		out[name] = [2]float64{float64(q.Cells), q.Value}
	}
	return out
}

// TestMODISKillANodeDrill is the paper-workload fault drill: with R=2,
// fail a node mid-life and require (1) the full MODIS suite on the
// degraded cluster matches the healthy baseline byte-for-byte, (2)
// PlanRecover + ExecuteRebalance restores every lost primary and a clean
// Validate, and (3) the suite still matches after recovery.
func TestMODISKillANodeDrill(t *testing.T) {
	c, cycle := modisCluster(t, 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	baseline := suiteAnswers(t, c, cycle)

	victim := drillVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	degraded := suiteAnswers(t, c, cycle)
	for name, want := range baseline {
		if got := degraded[name]; got != want {
			t.Errorf("degraded %s = %v, healthy baseline %v", name, got, want)
		}
	}

	plan, err := c.PlanRecover(victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost := plan.Unrecoverable(); len(lost) != 0 {
		t.Fatalf("R=2 drill has unrecoverable chunks: %v", lost)
	}
	if _, err := c.ExecuteRebalance(plan); err != nil {
		t.Fatal(err)
	}
	// The down node still physically holds its data (wiped only on
	// rejoin), but the catalog must credit every chunk to a healthy node.
	for _, info := range c.NodeChunks(victim) {
		if owner, ok := c.Owner(info.Ref.Packed()); !ok || owner == victim {
			t.Errorf("chunk %s still catalogued to the failed node", info.Ref)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("post-recovery validate: %v", err)
	}
	recovered := suiteAnswers(t, c, cycle)
	for name, want := range baseline {
		if got := recovered[name]; got != want {
			t.Errorf("recovered %s = %v, healthy baseline %v", name, got, want)
		}
	}

	// The repaired node can rejoin empty and the catalog stays clean.
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMODISDrillAtR1NamesLostChunks is the unreplicated variant: the
// suite must refuse to fabricate a partial answer, returning a typed
// *query.ErrPartialResult naming exactly the chunks lost with the node.
func TestMODISDrillAtR1NamesLostChunks(t *testing.T) {
	c, cycle := modisCluster(t, 1)
	victim := drillVictim(t, c)
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	_, err := query.MODISSuite(c, cycle)
	var pr *query.ErrPartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("degraded R=1 suite returned %v, want *query.ErrPartialResult", err)
	}
	want := c.UnreachablePrimaries(pr.Array)
	if len(want) == 0 {
		t.Fatalf("array %s reports no unreachable primaries, yet the suite failed on it", pr.Array)
	}
	wantS := make([]string, len(want))
	for i, ref := range want {
		wantS[i] = ref.String()
	}
	gotS := make([]string, len(pr.Lost))
	for i, ref := range pr.Lost {
		gotS[i] = ref.String()
	}
	sort.Strings(wantS)
	sort.Strings(gotS)
	if fmt.Sprint(gotS) != fmt.Sprint(wantS) {
		t.Errorf("lost chunks %v, want exactly %v", gotS, wantS)
	}

	// Healing the node restores full answers with no data loss.
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := query.MODISSuite(c, cycle); err != nil {
		t.Fatalf("suite still failing after recovery: %v", err)
	}
}
