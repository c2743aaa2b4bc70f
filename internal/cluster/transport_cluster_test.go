package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
)

// newTransportCluster builds a cluster routing its data paths over the
// given transport (nil: in process), with the test schema defined and
// Close hooked into test cleanup.
func newTransportCluster(t testing.TB, nodes, replication int, tr transport.Transport) *Cluster {
	t.Helper()
	c, err := New(Config{
		InitialNodes:      nodes,
		NodeCapacity:      10 << 20,
		Partitioner:       consistentFactory,
		ReplicationFactor: replication,
		Transport:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.DefineArray(testSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

// eachClusterBackend runs fn on a cluster over each of the two backends:
// in process (the loopback transport New installs when Config.Transport is
// nil) and TCP.
func eachClusterBackend(t *testing.T, nodes, replication int, fn func(t *testing.T, c *Cluster)) {
	t.Run("inprocess", func(t *testing.T) { fn(t, newTransportCluster(t, nodes, replication, nil)) })
	t.Run("tcp", func(t *testing.T) {
		fn(t, newTransportCluster(t, nodes, replication, transport.NewTCP(transport.TCPOptions{})))
	})
}

// eachFaultBackend runs fn on a cluster whose transport is a FaultTransport
// over each of the two backends.
func eachFaultBackend(t *testing.T, nodes int, fn func(t *testing.T, c *Cluster, ft *transport.FaultTransport)) {
	run := func(inner transport.Transport) func(*testing.T) {
		return func(t *testing.T) {
			ft := transport.NewFaultTransport(inner)
			fn(t, newTransportCluster(t, nodes, 1, ft), ft)
		}
	}
	t.Run("inprocess", run(transport.NewLoopback()))
	t.Run("tcp", run(transport.NewTCP(transport.TCPOptions{})))
}

// makeChunksIn builds n chunks with `cells` occupied cells each, confined
// to grid rows [rowLo, rowHi) so successive batches cannot collide under
// the no-overwrite model.
func makeChunksIn(t testing.TB, n, cells int, seed, rowLo, rowHi int64) []*array.Chunk {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	var out []*array.Chunk
	for len(out) < n {
		cc := array.ChunkCoord{rowLo + rng.Int63n(rowHi-rowLo), rng.Int63n(16)}
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

// fingerprint captures the cluster's full data state — every node's
// primaries and replicas, hashed payloads included — so two clusters can
// be compared byte for byte.
func fingerprint(t testing.TB, c *Cluster) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, info := range node.ChunkInfos() {
			ch, ok := node.Chunk(info.Ref)
			if !ok {
				t.Fatalf("node %d lists %s but cannot serve it", id, info.Ref)
			}
			enc, err := array.EncodeChunk(ch)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			out[fmt.Sprintf("%d/primary/%s", id, info.Ref)] = hex.EncodeToString(sum[:])
		}
		for _, rep := range node.Replicas() {
			enc, err := array.EncodeChunk(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			out[fmt.Sprintf("%d/replica/%s", id, rep.Ref())] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

func diffFingerprints(t *testing.T, want, got map[string]string) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("state diverges at %s: baseline %q, transport %q", k, want[k], got[k])
		}
	}
}

// TestClusterOverTransportMatchesInProcess drives the same insert →
// scale-out → insert sequence in process and over TCP, and demands
// byte-identical cluster state and identical simulated charges.
func TestClusterOverTransportMatchesInProcess(t *testing.T) {
	run := func(t *testing.T, tr transport.Transport) (map[string]string, Duration, Duration) {
		c := newTransportCluster(t, 2, 2, tr)
		d1, err := c.Insert(makeChunksIn(t, 24, 8, 7, 0, 8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ScaleOut(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(makeChunksIn(t, 16, 8, 11, 8, 16)); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, c), d1, res.Reorg
	}
	base, baseIns, baseReorg := run(t, nil)
	got, ins, reorg := run(t, transport.NewTCP(transport.TCPOptions{}))
	diffFingerprints(t, base, got)
	if ins != baseIns {
		t.Errorf("insert charge %v, baseline %v", ins, baseIns)
	}
	if reorg != baseReorg {
		t.Errorf("reorg charge %v, baseline %v", reorg, baseReorg)
	}
}

// TestScaleOutMeasuredWireMatchesPrediction checks the acceptance bar for
// the measured-vs-predicted surface: a rebalance reports MeasuredWireBytes
// equal to the plan's Eq 7 prediction, a wall-clock duration, and a frame
// byte count — exactly the payload volume in process, at least that over
// TCP's framing.
func TestScaleOutMeasuredWireMatchesPrediction(t *testing.T) {
	eachClusterBackend(t, 2, 1, func(t *testing.T, c *Cluster) {
		if _, err := c.Insert(makeChunks(t, 30, 8, 3)); err != nil {
			t.Fatal(err)
		}
		res, err := c.ScaleOut(2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves == 0 {
			t.Fatal("scale-out moved nothing; fixture too small")
		}
		if res.PredictedWireBytes == 0 {
			t.Error("predicted wire bytes missing")
		}
		if res.MeasuredWireBytes != res.PredictedWireBytes {
			t.Errorf("MeasuredWireBytes = %d, predicted %d", res.MeasuredWireBytes, res.PredictedWireBytes)
		}
		if res.MeasuredDuration <= 0 {
			t.Error("measured duration missing")
		}
		if c.transport.Remote() {
			if res.FrameBytes < res.MovedBytes {
				t.Errorf("TCP frame bytes %d below payload volume %d", res.FrameBytes, res.MovedBytes)
			}
		} else if res.FrameBytes != res.MovedBytes {
			// Loopback reports exactly the payload volume per push.
			t.Errorf("in-process frame bytes %d, want moved bytes %d", res.FrameBytes, res.MovedBytes)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransportRetryAbsorbsTransientFaults arms a FaultTransport to drop
// connections ahead of rebalance pushes and expects the transfer retry
// budget to absorb them with no effect on the outcome.
func TestTransportRetryAbsorbsTransientFaults(t *testing.T) {
	eachFaultBackend(t, 2, func(t *testing.T, c *Cluster, ft *transport.FaultTransport) {
		if _, err := c.Insert(makeChunks(t, 30, 8, 3)); err != nil {
			t.Fatal(err)
		}
		ft.FailNextPushes(2)
		res, err := c.ScaleOut(2)
		if err != nil {
			t.Fatal(err)
		}
		if ft.Injected() == 0 {
			t.Fatal("fault transport injected nothing")
		}
		if res.MeasuredWireBytes != res.PredictedWireBytes {
			t.Errorf("MeasuredWireBytes = %d, predicted %d", res.MeasuredWireBytes, res.PredictedWireBytes)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransportTruncationRetried arms torn streams — the receiver sees a
// decode failure mid-batch, unwinds, and the sender's retry completes the
// transfer.
func TestTransportTruncationRetried(t *testing.T) {
	eachFaultBackend(t, 2, func(t *testing.T, c *Cluster, ft *transport.FaultTransport) {
		if _, err := c.Insert(makeChunks(t, 30, 8, 3)); err != nil {
			t.Fatal(err)
		}
		ft.TruncateNextPushes(1)
		if _, err := c.ScaleOut(2); err != nil {
			t.Fatal(err)
		}
		if ft.Injected() != 1 {
			t.Fatalf("injected = %d, want 1", ft.Injected())
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRebalanceRollsBackOnPersistentTransportFault exhausts the retry
// budget and expects the whole rebalance to roll back atomically, leaving
// a valid cluster.
func TestRebalanceRollsBackOnPersistentTransportFault(t *testing.T) {
	eachFaultBackend(t, 2, func(t *testing.T, c *Cluster, ft *transport.FaultTransport) {
		if _, err := c.Insert(makeChunks(t, 30, 8, 3)); err != nil {
			t.Fatal(err)
		}
		before := fingerprint(t, c)
		ft.FailNextPushes(1000)
		_, err := c.ScaleOut(2)
		if err == nil {
			t.Fatal("scale-out should fail when every push drops")
		}
		if !errors.Is(err, transport.ErrInjected) {
			t.Fatalf("error should wrap ErrInjected, got %v", err)
		}
		ft.FailNextPushes(0)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		// The provisioned nodes stand (monotonic growth), but no chunk moved.
		diffFingerprints(t, before, fingerprint(t, c))
	})
}

// TestIngestOverTransportRollsBack arms a persistent drop against ingest
// pushes: ExecutePlan must fail and release the plan's reservations.
func TestIngestOverTransportRollsBack(t *testing.T) {
	eachFaultBackend(t, 3, func(t *testing.T, c *Cluster, ft *transport.FaultTransport) {
		if _, err := c.Insert(makeChunksIn(t, 12, 8, 5, 0, 8)); err != nil {
			t.Fatal(err)
		}
		before := fingerprint(t, c)
		ft.FailNextPushes(1000)
		_, err := c.Insert(makeChunksIn(t, 12, 8, 9, 8, 16))
		if err == nil {
			t.Fatal("insert should fail when every push drops")
		}
		ft.FailNextPushes(0)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		diffFingerprints(t, before, fingerprint(t, c))
		// The failed batch's reservations are released: re-inserting works.
		if _, err := c.Insert(makeChunksIn(t, 12, 8, 9, 8, 16)); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoveryDrillOverTransport runs the kill-a-node drill — fail,
// recover from replicas, readmit — in process and over TCP and pins the
// TCP end state to the in-process one.
func TestRecoveryDrillOverTransport(t *testing.T) {
	drill := func(t *testing.T, c *Cluster) map[string]string {
		if _, err := c.Insert(makeChunks(t, 24, 8, 7)); err != nil {
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
		if len(plan.Unrecoverable()) > 0 {
			t.Fatalf("unrecoverable: %v", plan.Unrecoverable())
		}
		if _, err := c.ExecuteRebalance(plan); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecoverNode(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, c)
	}
	base := drill(t, newTransportCluster(t, 3, 2, nil))
	diffFingerprints(t, base, drill(t, newTransportCluster(t, 3, 2, transport.NewTCP(transport.TCPOptions{}))))
}

// TestAnnouncementsTrackHoldings checks that after administration the
// coordinator's announced view matches each node's actual holdings.
func TestAnnouncementsTrackHoldings(t *testing.T) {
	eachClusterBackend(t, 2, 2, func(t *testing.T, c *Cluster) {
		latest := latestAnnouncements(c)
		if _, err := c.Insert(makeChunks(t, 24, 8, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ScaleOut(1); err != nil {
			t.Fatal(err)
		}
		anns := latest()
		coord := c.Coordinator()
		for _, id := range c.Nodes() {
			if id == coord {
				continue
			}
			a, ok := anns[id]
			if !ok {
				t.Fatalf("node %d never announced", id)
			}
			node, _ := c.Node(id)
			if a.Chunks != int64(node.NumChunks()) || a.Bytes != node.Bytes() {
				t.Errorf("node %d announced %d chunks / %d bytes, holds %d / %d",
					id, a.Chunks, a.Bytes, node.NumChunks(), node.Bytes())
			}
			if a.Replicas != int64(node.NumReplicas()) || a.ReplicaBytes != node.ReplicaBytes() {
				t.Errorf("node %d announced %d replicas / %d bytes, holds %d / %d",
					id, a.Replicas, a.ReplicaBytes, node.NumReplicas(), node.ReplicaBytes())
			}
		}
		if _, ok := anns[coord]; ok {
			t.Error("coordinator should not announce to itself")
		}
	})
}

// TestDefaultClusterRunsOnLoopback pins what Config.Transport == nil
// means: the cluster is in process on a loopback transport it installed
// itself, so the seam's whole surface — pointer reads, heartbeats,
// announcements after a rebalance, supervision (see the supervisor
// package's TestSupervisorAcceptsDefaultCluster) — works with no transport
// configured.
func TestDefaultClusterRunsOnLoopback(t *testing.T) {
	c := newTestCluster(t, 3, consistentFactory)
	latest := latestAnnouncements(c)
	if _, ok := c.transport.(*transport.Loopback); !ok {
		t.Fatalf("default cluster transport is %T, want *transport.Loopback", c.transport)
	}
	if c.WireReads() {
		t.Error("an in-process cluster must not report wire reads")
	}
	if sent, want := c.HeartbeatNow(), c.NumNodes()-1; sent != want {
		t.Errorf("HeartbeatNow sent %d, want %d (every non-coordinator node)", sent, want)
	}
	if _, err := c.Insert(makeChunks(t, 24, 8, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	anns := latest()
	for _, id := range c.Nodes()[1:] {
		node, _ := c.Node(id)
		if a, ok := anns[id]; !ok || a.Chunks != int64(node.NumChunks()) {
			t.Errorf("node %d: announcement %+v (present %v), holds %d chunks", id, a, ok, node.NumChunks())
		}
	}
}

// TestWireReadsGate pins the query-side gate: only a remote transport
// reports wire reads (the default cluster's answer is pinned above).
func TestWireReadsGate(t *testing.T) {
	if newTransportCluster(t, 2, 1, transport.NewLoopback()).WireReads() {
		t.Error("loopback cluster must not report wire reads")
	}
	if !newTransportCluster(t, 2, 1, transport.NewTCP(transport.TCPOptions{})).WireReads() {
		t.Error("tcp cluster must report wire reads")
	}
}

// TestFetchChunkServesPrimaryAndReplica exercises the cluster-level fetch
// helper the query layer's wire pulls use.
func TestFetchChunkServesPrimaryAndReplica(t *testing.T) {
	c := newTransportCluster(t, 2, 2, transport.NewTCP(transport.TCPOptions{}))
	chunks := makeChunks(t, 8, 8, 7)
	if _, err := c.Insert(chunks); err != nil {
		t.Fatal(err)
	}
	coord := c.Coordinator()
	for _, ch := range chunks {
		owner, ok := c.Owner(ch.Key())
		if !ok {
			t.Fatalf("chunk %s not catalogued", ch.Ref())
		}
		got, err := c.FetchChunk(coord, owner, ch.Ref())
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, _ := array.EncodeChunk(ch)
		gotEnc, _ := array.EncodeChunk(got)
		if string(wantEnc) != string(gotEnc) {
			t.Fatalf("fetched %s differs from inserted payload", ch.Ref())
		}
		// A replica holder serves the same chunk off its replica map.
		for _, h := range c.ReplicaHolders(ch.Key()) {
			got, err := c.FetchChunk(coord, h, ch.Ref())
			if err != nil {
				t.Fatal(err)
			}
			gotEnc, _ := array.EncodeChunk(got)
			if string(wantEnc) != string(gotEnc) {
				t.Fatalf("replica fetch of %s from node %d differs", ch.Ref(), h)
			}
		}
	}
}

// rawPush writes a push request by hand on conn — the "ETRN" header (magic,
// op 1, from, kind) and the given segments — so a test can send what no
// well-behaved sender would.
func rawPush(t *testing.T, conn net.Conn, kind transport.BatchKind, segments ...[]byte) {
	t.Helper()
	b := append([]byte("NRTE"), 1) // u32 "ETRN" little endian, op push
	b = binary.LittleEndian.AppendUint64(b, 99)
	b = append(b, byte(kind))
	for _, seg := range segments {
		b = append(binary.LittleEndian.AppendUint32(b, uint32(len(seg))), seg...)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// rawNodeConn dials a TCP cluster's node with a plain socket.
func rawNodeConn(t *testing.T, c *Cluster, id partition.NodeID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", c.transport.Addr(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// TestTCPPushDeclaredCountUntrusted sends a push whose batch header
// declares 2^32-1 chunks and carries none: the node must not size anything
// from that count, must commit nothing, and must take the next push on the
// same connection.
func TestTCPPushDeclaredCountUntrusted(t *testing.T) {
	c := newTransportCluster(t, 2, 1, transport.NewTCP(transport.TCPOptions{}))
	id := c.Nodes()[1]
	node, _ := c.Node(id)
	conn := rawNodeConn(t, c, id)
	header, err := array.EncodeChunkBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(header[6:], 0xffffffff) // the chunk count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rawPush(t, conn, transport.KindIngest, header, nil)
	resp := make([]byte, 5)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if resp[0] != 2 { // the corrupt-stream status
		t.Fatalf("response status %d, want 2 (corrupt stream)", resp[0])
	}
	if _, err := io.ReadFull(conn, make([]byte, binary.LittleEndian.Uint32(resp[1:]))); err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("an empty batch declaring 2^32-1 chunks allocated %d bytes, want under 1 MiB", grew)
	}
	if node.NumChunks() != 0 {
		t.Fatalf("node holds %d chunks after an empty batch", node.NumChunks())
	}

	batch, err := array.EncodeChunkBatch(makeChunks(t, 1, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	rawPush(t, conn, transport.KindIngest, batch, nil)
	if _, err := io.ReadFull(conn, resp[:1]); err != nil || resp[0] != 0 {
		t.Fatalf("next push answered status %d (%v), want 0 (ok)", resp[0], err)
	}
	if node.NumChunks() != 1 {
		t.Fatalf("node holds %d chunks after the next push, want 1", node.NumChunks())
	}
}

// TestTCPPushCutMidSegmentCommitsNothing cuts a two-chunk push inside its
// second chunk's frame, after the node has stored the first: the node must
// unwind that chunk and drop the connection without a response.
func TestTCPPushCutMidSegmentCommitsNothing(t *testing.T) {
	c := newTransportCluster(t, 2, 1, transport.NewTCP(transport.TCPOptions{}))
	id := c.Nodes()[1]
	node, _ := c.Node(id)
	chunks := makeChunks(t, 2, 16, 11)
	batch, err := array.EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	first, err := array.EncodeChunk(chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := 10 + 2 + len(chunks[0].Schema.Name) + len(first) + 20 // batch header, first frame, 20 bytes more
	conn := rawNodeConn(t, c, id)
	rawPush(t, conn, transport.KindIngest, batch[:10]) // the batch header segment
	segment := binary.LittleEndian.AppendUint32(nil, uint32(len(batch)-10))
	if _, err := conn.Write(append(segment, batch[10:cut]...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The node closes the connection only once the delivery has unwound.
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Fatalf("torn push answered %x (%v), want the connection closed", rest, err)
	}
	if node.NumChunks() != 0 {
		t.Fatalf("node holds %d chunks from a torn push", node.NumChunks())
	}
}
