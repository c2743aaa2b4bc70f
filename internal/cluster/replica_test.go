package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// replicatedFixture is a two-chunk replicated array (schema "Rep").
func replicatedFixture() (*array.Schema, []*array.Chunk) {
	rs := mustSchema("Rep",
		[]array.Attribute{{Name: "v", Type: array.Int64}},
		[]array.Dimension{{Name: "i", Start: 0, End: 199, ChunkInterval: 100}})
	var chunks []*array.Chunk
	for c := int64(0); c < 2; c++ {
		ch := array.NewChunk(rs, array.ChunkCoord{c})
		for i := int64(0); i < 32; i++ {
			ch.AppendCell(array.Coord{c*100 + i}, []array.CellValue{{Int: c*1000 + i}})
		}
		chunks = append(chunks, ch)
	}
	return rs, chunks
}

// replicaLifecycle drives the fixed script the replica path is pinned on —
// ReplicateArray, Insert, ScaleOut(2), FailNode, PlanRecover +
// ExecuteRebalance, RecoverNode, ScaleOut(1) — calling after with each
// step's name and simulated charge once the step has returned.
func replicaLifecycle(t *testing.T, c *Cluster, after func(step string, sim Duration)) {
	t.Helper()
	rs, reps := replicatedFixture()
	var victim partition.NodeID
	steps := []struct {
		name string
		op   func() (Duration, error)
	}{
		{"replicate", func() (Duration, error) { return c.ReplicateArray(rs, reps) }},
		{"insert", func() (Duration, error) { return c.Insert(makeChunks(t, 40, 8, 31)) }},
		{"scale-out", func() (Duration, error) { r, err := c.ScaleOut(2); return r.Reorg, err }},
		{"fail", func() (Duration, error) { victim = pickVictim(t, c); return 0, c.FailNode(victim) }},
		{"recover", func() (Duration, error) {
			plan, err := c.PlanRecover(victim)
			if err != nil {
				return 0, err
			}
			return c.ExecuteRebalance(plan)
		}},
		{"readmit", func() (Duration, error) { return c.RecoverNode(victim) }},
		{"scale-out-again", func() (Duration, error) { r, err := c.ScaleOut(1); return r.Reorg, err }},
	}
	for _, s := range steps {
		sim, err := s.op()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		after(s.name, sim)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// fingerprintDigest is the sha256 of a fingerprint's sorted entries.
func fingerprintDigest(t testing.TB, c *Cluster) string {
	fp := fingerprint(t, c)
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, fp[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplicaPathFixedPoints pins the state fingerprint and the simulated
// charge after every step of replicaLifecycle at R = 1, 2 and 3 on the
// in-process backend. The literals are cross-commit fixed points: a change
// may alter how replica copies are pushed, never what the cluster ends up
// holding or charging, so a failure here is a defect, not a stale literal.
func TestReplicaPathFixedPoints(t *testing.T) {
	type point struct {
		digest string
		sim    Duration
	}
	want := map[int]map[string]point{
		1: {
			"replicate":       {"0e2a4d7b388d45fced81d54bfcda8ff6f25ea8d9fb8c48ade09ddf5b44bae6b8", 4.8828125e-05},
			"insert":          {"832d30bd7cde617716f0cde09b75f965aaeef7de1fdb3488eb5fa64a1af71798", 0.00013916015625000002},
			"scale-out":       {"e524cf885d126d036cf250a8ce7b127855767950186691016cf38f3be6d0f71f", 30.00005645751953},
			"fail":            {"e524cf885d126d036cf250a8ce7b127855767950186691016cf38f3be6d0f71f", 0},
			"recover":         {"e524cf885d126d036cf250a8ce7b127855767950186691016cf38f3be6d0f71f", 0},
			"readmit":         {"e524cf885d126d036cf250a8ce7b127855767950186691016cf38f3be6d0f71f", 0},
			"scale-out-again": {"7541703c026efd3827f46362de1227b0e1eddfcc2fdceafc2b8661aa1082eb9e", 30.00006103515625},
		},
		2: {
			"replicate":       {"0e2a4d7b388d45fced81d54bfcda8ff6f25ea8d9fb8c48ade09ddf5b44bae6b8", 4.8828125e-05},
			"insert":          {"6b989bfb4a92bb8ca735e6df86484bbcc9586c4d491d93dc6d6ee2370a51dcd7", 0.00029205322265625},
			"scale-out":       {"3c540ed5bdeee462c79fa7b5059f954079ee890a3c6e782ff9ba4b10163b1b43", 30.00006103515625},
			"fail":            {"3c540ed5bdeee462c79fa7b5059f954079ee890a3c6e782ff9ba4b10163b1b43", 0},
			"recover":         {"5d84c933bd645ea28acc61f3c3bc6e45cafdab145c0cb695677d78b9e99e81f7", 5.2642822265625e-05},
			"readmit":         {"b97ed3b781bba6212a1aae2c6b157856f855ac373d4cecb4373d247c6762159f", 5.9509277343750005e-05},
			"scale-out-again": {"437b4a7338db2bd11b8686d564f2d2c40dd0b927cbf9ff9852766f8e954db427", 30.00006561279297},
		},
		3: {
			"replicate":       {"0e2a4d7b388d45fced81d54bfcda8ff6f25ea8d9fb8c48ade09ddf5b44bae6b8", 4.8828125e-05},
			"insert":          {"5de4f9841594e86d0242f4dfe4e63c36040911aeea104dc96cc2547e7230daf1", 0.000439453125},
			"scale-out":       {"347958a620a03779e22c43e8354ff47c7804f7218713c7eb45849e037e378eee", 30.000067901611327},
			"fail":            {"347958a620a03779e22c43e8354ff47c7804f7218713c7eb45849e037e378eee", 0},
			"recover":         {"01eb629f5c19a92ceef771e097d9a922ce0d08a96165e4e9531aa5568c17deb2", 8.23974609375e-05},
			"readmit":         {"5fd0ec0b014139f0fca83539ad6f33ec6edb988f34c6c2ecbe88e75b78118cab", 0.00011444091796875},
			"scale-out-again": {"60d62d8a4b26d41ae4d4e6f0b400ccb883aec072af993feff399a07142cd0856", 30.00007019042969},
		},
	}
	for _, r := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) {
			c := newTransportCluster(t, 3, r, nil)
			replicaLifecycle(t, c, func(step string, sim Duration) {
				got := point{fingerprintDigest(t, c), sim}
				if got != want[r][step] {
					t.Errorf("%q: {%q, %v}, want {%q, %v}", step, got.digest, float64(got.sim), want[r][step].digest, float64(want[r][step].sim))
				}
			})
		})
	}
}

// recordedPush is one delivered push: its kind, endpoints and chunk keys.
type recordedPush struct {
	kind     transport.BatchKind
	from, to partition.NodeID
	keys     []array.ChunkKey
}

// recordingTransport records every delivered push of the transport it
// wraps.
type recordingTransport struct {
	transport.Transport
	mu     sync.Mutex
	pushes []recordedPush
}

func (r *recordingTransport) PushChunks(from, to partition.NodeID, kind transport.BatchKind, chunks []*array.Chunk) (int64, error) {
	n, err := r.Transport.PushChunks(from, to, kind, chunks)
	if err == nil {
		p := recordedPush{kind: kind, from: from, to: to}
		for _, ch := range chunks {
			p.keys = append(p.keys, ch.Key())
		}
		r.mu.Lock()
		r.pushes = append(r.pushes, p)
		r.mu.Unlock()
	}
	return n, err
}

// take returns the pushes recorded since the last call.
func (r *recordingTransport) take() []recordedPush {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.pushes
	r.pushes = nil
	return out
}

// holding is one replica copy resident on one node.
type holding struct {
	node partition.NodeID
	key  array.ChunkKey
}

// replicaHoldings returns every replica copy resident in the cluster.
func replicaHoldings(c *Cluster) map[holding]bool {
	out := map[holding]bool{}
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, rep := range node.Replicas() {
			out[holding{id, rep.Key()}] = true
		}
	}
	return out
}

// TestReplicaPathOneBatchPerPair checks the one-path invariant over the
// replica lifecycle at R = 2 and 3: within each operation no (from, to)
// pair receives two KindReplica pushes, and every replica copy that
// appears on a node was delivered to it by a recorded push. Fix-ups of
// moved chunks (applied in place) are the one exemption: a copy whose
// chunk crossed the wire in the same operation's KindRebalance batches.
func TestReplicaPathOneBatchPerPair(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) {
			rec := &recordingTransport{Transport: transport.NewLoopback()}
			c := newTransportCluster(t, 3, r, rec)
			before := replicaHoldings(c)
			replicaLifecycle(t, c, func(step string, _ Duration) {
				delivered, moved := map[holding]bool{}, map[array.ChunkKey]bool{}
				pairs := map[[2]partition.NodeID]int{}
				for _, p := range rec.take() {
					switch p.kind {
					case transport.KindReplica:
						pair := [2]partition.NodeID{p.from, p.to}
						if pairs[pair]++; pairs[pair] == 2 {
							t.Errorf("%s: node %d pushed node %d two replica batches", step, p.from, p.to)
						}
						for _, k := range p.keys {
							delivered[holding{p.to, k}] = true
						}
					case transport.KindRebalance:
						for _, k := range p.keys {
							moved[k] = true
						}
					}
				}
				after := replicaHoldings(c)
				for h := range after {
					if !before[h] && !delivered[h] && !moved[h.key] {
						t.Errorf("%s: replica %s appeared on node %d without a push", step, h.key.Ref(), h.node)
					}
				}
				before = after
			})
		})
	}
}

// TestReplicatedGapsFillStrandedNodes: a scale-out whose plan fails after
// provisioning leaves the node it added without the replicated array; the
// next readmission or rebalance must fill it, so later audits are clean.
func TestReplicatedGapsFillStrandedNodes(t *testing.T) {
	c := newTransportCluster(t, 3, 2, nil)
	rs, reps := replicatedFixture()
	if _, err := c.ReplicateArray(rs, reps); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(makeChunks(t, 40, 8, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(2); err != nil {
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
	if _, err := c.ScaleOut(1); err == nil || !strings.Contains(err.Error(), "onto down node") {
		t.Fatalf("ScaleOut(1) with node %d down: %v, want a plan moving onto the down node", victim, err)
	}
	if _, err := c.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicateArrayIsAtomic checks that a ReplicateArray naming a chunk
// twice fails without registering, defining or copying anything.
func TestReplicateArrayIsAtomic(t *testing.T) {
	c := newTransportCluster(t, 3, 2, nil)
	rs, reps := replicatedFixture()
	before := fingerprint(t, c)
	if _, err := c.ReplicateArray(rs, []*array.Chunk{reps[0], reps[1], reps[0]}); err == nil || !strings.Contains(err.Error(), "already replicated") {
		t.Fatalf("duplicate chunk: %v, want an already-replicated error", err)
	}
	diffFingerprints(t, before, fingerprint(t, c))
	if _, ok := c.Schema(rs.Name); ok || len(c.repChunks) != 0 || len(c.repKeys) != 0 {
		t.Fatalf("failed ReplicateArray left schema %v, %d registered chunks, %d keys", ok, len(c.repChunks), len(c.repKeys))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReplicateArray(rs, reps); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
