// Command elasticnode hosts array-database node endpoints over the TCP
// transport, and probes them — the multi-process face of the transport
// subsystem. One process per node, real sockets in between; the wire
// protocol is the same length-prefixed ABAT chunk streaming the in-process
// cluster uses, so a probe against a served node exercises exactly the
// bytes a cluster rebalance ships.
//
// Host a node (one process each; -listen 127.0.0.1:0 picks a free port and
// prints it):
//
//	elasticnode -serve -node 1 -listen 127.0.0.1:7101
//	elasticnode -serve -node 2 -listen 127.0.0.1:7102
//
// A served node can emit sequence-numbered heartbeats to a coordinator
// endpoint so a failure detector on the other side can track its liveness
// (kill the process and the heartbeats stop — exactly the signal the
// supervisor's drill injects in-process):
//
//	elasticnode -serve -node 2 -listen 127.0.0.1:7102 \
//	    -coord 1=127.0.0.1:7101 -heartbeat 100ms
//
// Probe them from a third process — push a deterministic MODIS-shaped
// ingest batch split across the peers, fetch every chunk back, verify the
// round-trip byte for byte, and report measured wire volume and throughput:
//
//	elasticnode -peers 1=127.0.0.1:7101,2=127.0.0.1:7102 -chunks 64
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	serve := flag.Bool("serve", false, "host one node endpoint until interrupted")
	nodeID := flag.Int("node", 1, "node ID to serve")
	listen := flag.String("listen", "127.0.0.1:0", "listen address for -serve")
	peers := flag.String("peers", "", "probe targets: comma-separated id=host:port pairs")
	wl := flag.String("workload", "MODIS", "schema source for both sides: MODIS or AIS")
	nChunks := flag.Int("chunks", 32, "probe: chunks to push")
	coord := flag.String("coord", "", "serve: coordinator endpoint (id=host:port) to heartbeat")
	hbEvery := flag.Duration("heartbeat", 100*time.Millisecond, "serve: heartbeat period when -coord is set")
	flag.Parse()

	schemas, chunkGen, err := workloadSchemas(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elasticnode:", err)
		os.Exit(1)
	}
	switch {
	case *serve:
		err = runServe(partition.NodeID(*nodeID), *listen, schemas, *coord, *hbEvery)
	case *peers != "":
		err = runProbe(*peers, schemas, chunkGen, *nChunks)
	default:
		fmt.Fprintln(os.Stderr, "elasticnode: need -serve or -peers (see -h)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "elasticnode:", err)
		os.Exit(1)
	}
}

// workloadSchemas returns the named workload's schema registry and its
// deterministic first-cycle chunk batch — the shared contract between a
// served node (decode schemas) and the probe (the chunks it pushes).
func workloadSchemas(name string) (map[string]*array.Schema, func() ([]*array.Chunk, error), error) {
	var gen workload.Generator
	var err error
	switch strings.ToUpper(name) {
	case "MODIS":
		gen, err = workload.NewMODIS(workload.MODISConfig{Cycles: 1, BaseCells: 16})
	case "AIS":
		gen, err = workload.NewAIS(workload.AISConfig{Cycles: 1, CellsPerCycle: 2500})
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (MODIS or AIS)", name)
	}
	if err != nil {
		return nil, nil, err
	}
	schemas := map[string]*array.Schema{}
	for _, s := range gen.Schemas() {
		schemas[s.Name] = s
	}
	if rs, _ := gen.Replicated(); rs != nil {
		schemas[rs.Name] = rs
	}
	return schemas, func() ([]*array.Chunk, error) { return gen.Batch(0) }, nil
}

// storeNode is a standalone served node: an in-memory chunk store behind
// transport.Handler, with the receiver-atomic delivery contract the
// cluster's own node service gives (a torn batch leaves nothing behind).
type storeNode struct {
	id      partition.NodeID
	schemas map[string]*array.Schema

	mu       sync.Mutex
	chunks   map[array.ChunkKey]*array.Chunk
	replicas map[array.ChunkKey]*array.Chunk
	bytes    int64
}

func newStoreNode(id partition.NodeID, schemas map[string]*array.Schema) *storeNode {
	return &storeNode{
		id:       id,
		schemas:  schemas,
		chunks:   make(map[array.ChunkKey]*array.Chunk),
		replicas: make(map[array.ChunkKey]*array.Chunk),
	}
}

func (n *storeNode) Deliver(from partition.NodeID, kind transport.BatchKind, count int, next func() (*array.Chunk, error)) error {
	var staged []*array.Chunk // grown by append: count is the sender's word
	for i := 0; i < count; i++ {
		ch, err := next()
		if err != nil {
			return err
		}
		staged = append(staged, ch)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if kind == transport.KindReplica {
		for _, ch := range staged {
			n.replicas[ch.Key()] = ch
		}
		return nil
	}
	for _, ch := range staged {
		if _, dup := n.chunks[ch.Key()]; dup {
			return fmt.Errorf("chunk %s already stored (no-overwrite model)", ch.Ref())
		}
	}
	for _, ch := range staged {
		n.chunks[ch.Key()] = ch
		n.bytes += ch.SizeBytes()
	}
	fmt.Printf("node %d: %s batch from node %d: %d chunk(s), now holding %d (%d bytes)\n",
		n.id, kind, from, len(staged), len(n.chunks), n.bytes)
	return nil
}

func (n *storeNode) Fetch(ref array.ChunkRef) (*array.Chunk, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ch, ok := n.chunks[ref.Packed()]; ok {
		return ch, nil
	}
	if ch, ok := n.replicas[ref.Packed()]; ok {
		return ch, nil
	}
	return nil, fmt.Errorf("node %d does not hold %s", n.id, ref)
}

func (n *storeNode) Announce(from partition.NodeID, a transport.Announcement) error {
	fmt.Printf("node %d: announcement from node %d: %d chunk(s), %d bytes, epoch %d, seq %d\n",
		n.id, from, a.Chunks, a.Bytes, a.Epoch, a.Seq)
	return nil
}

// holdings snapshots the node's announced state for a heartbeat.
func (n *storeNode) holdings() (chunks, bytes, replicas int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.chunks)), n.bytes, int64(len(n.replicas))
}

func (n *storeNode) Schema(name string) (*array.Schema, bool) {
	s, ok := n.schemas[name]
	return s, ok
}

// runServe hosts one node endpoint until SIGINT/SIGTERM, heartbeating the
// coordinator when one is named.
func runServe(id partition.NodeID, listen string, schemas map[string]*array.Schema, coord string, hbEvery time.Duration) error {
	tr := transport.NewTCP(transport.TCPOptions{ListenAddr: listen})
	defer tr.Close()
	node := newStoreNode(id, schemas)
	if err := tr.Serve(id, node); err != nil {
		return err
	}
	fmt.Printf("node %d: serving on %s (%d schema(s) registered); interrupt to stop\n",
		id, tr.Addr(id), len(schemas))
	stopHB := make(chan struct{})
	if coord != "" {
		cid, addr, ok := strings.Cut(strings.TrimSpace(coord), "=")
		if !ok {
			return fmt.Errorf("bad -coord %q (want id=host:port)", coord)
		}
		cn, err := strconv.Atoi(cid)
		if err != nil {
			return fmt.Errorf("bad -coord id %q: %w", cid, err)
		}
		if hbEvery <= 0 {
			return fmt.Errorf("-heartbeat must be positive, got %v", hbEvery)
		}
		coordID := partition.NodeID(cn)
		tr.AddRemote(coordID, addr)
		fmt.Printf("node %d: heartbeating coordinator node %d at %s every %v\n", id, coordID, addr, hbEvery)
		go func() {
			t := time.NewTicker(hbEvery)
			defer t.Stop()
			var seq uint64
			for {
				select {
				case <-stopHB:
					return
				case <-t.C:
					seq++
					chunks, bytes, replicas := node.holdings()
					// Best-effort, like the in-process heartbeat loop: a
					// coordinator that is briefly unreachable costs nothing
					// but the missed beat.
					_ = tr.Announce(id, coordID, transport.Announcement{
						Node:     id,
						Chunks:   chunks,
						Bytes:    bytes,
						Replicas: replicas,
						Seq:      seq,
					})
				}
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopHB)
	fmt.Printf("node %d: shutting down\n", id)
	return nil
}

// runProbe pushes a deterministic workload batch across the peers, reads
// every chunk back over the wire, verifies the round-trip byte for byte,
// and reports measured wire volume and throughput.
func runProbe(peerSpec string, schemas map[string]*array.Schema, chunkGen func() ([]*array.Chunk, error), nChunks int) error {
	type peer struct {
		id   partition.NodeID
		addr string
	}
	var targets []peer
	for _, p := range strings.Split(peerSpec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			return fmt.Errorf("bad peer %q (want id=host:port)", p)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return fmt.Errorf("bad peer id %q: %w", id, err)
		}
		targets = append(targets, peer{partition.NodeID(n), addr})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	tr := transport.NewTCP(transport.TCPOptions{})
	defer tr.Close()
	tr.SetSchemaLookup(func(name string) (*array.Schema, bool) {
		s, ok := schemas[name]
		return s, ok
	})
	for _, p := range targets {
		tr.AddRemote(p.id, p.addr)
	}

	batch, err := chunkGen()
	if err != nil {
		return err
	}
	if nChunks > 0 && nChunks < len(batch) {
		batch = batch[:nChunks]
	}
	var payload int64
	for _, ch := range batch {
		payload += ch.SizeBytes()
	}

	// Push: the batch split across the peers, one transport push each —
	// the same shape as one rebalance receiver batch per node.
	const probeID partition.NodeID = 0
	start := time.Now()
	var wire int64
	for i, p := range targets {
		lo := i * len(batch) / len(targets)
		hi := (i + 1) * len(batch) / len(targets)
		if lo == hi {
			continue
		}
		n, err := tr.PushChunks(probeID, p.id, transport.KindIngest, batch[lo:hi])
		wire += n
		if err != nil {
			return fmt.Errorf("push to node %d: %w", p.id, err)
		}
		fmt.Printf("pushed %d chunk(s) to node %d at %s (%d wire bytes)\n", hi-lo, p.id, p.addr, n)
	}
	pushDur := time.Since(start)

	// Fetch every chunk back from the peer it landed on and verify the
	// round-trip byte for byte.
	start = time.Now()
	var fetchWire int64
	for i, p := range targets {
		lo := i * len(batch) / len(targets)
		hi := (i + 1) * len(batch) / len(targets)
		for _, ch := range batch[lo:hi] {
			got, n, err := tr.FetchChunk(probeID, p.id, ch.Ref())
			fetchWire += n
			if err != nil {
				return fmt.Errorf("fetch %s from node %d: %w", ch.Ref(), p.id, err)
			}
			want, err := array.EncodeChunk(ch)
			if err != nil {
				return err
			}
			enc, err := array.EncodeChunk(got)
			if err != nil {
				return err
			}
			if string(want) != string(enc) {
				return fmt.Errorf("round-trip mismatch for %s via node %d", ch.Ref(), p.id)
			}
		}
	}
	fetchDur := time.Since(start)

	for _, p := range targets {
		if err := tr.Announce(probeID, p.id, transport.Announcement{Node: probeID}); err != nil {
			return fmt.Errorf("announce to node %d: %w", p.id, err)
		}
	}

	mbps := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / (1 << 20) / d.Seconds()
	}
	fmt.Printf("probe: %d chunk(s), %d payload bytes over %d peer(s)\n", len(batch), payload, len(targets))
	fmt.Printf("  push:  %d wire bytes in %v (%.1f MiB/s)\n", wire, pushDur, mbps(wire, pushDur))
	fmt.Printf("  fetch: %d wire bytes in %v (%.1f MiB/s), all round-trips byte-identical\n",
		fetchWire, fetchDur, mbps(fetchWire, fetchDur))
	return nil
}
