package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/workload"
)

// sizes fixes how much work one pass of each workload does. The benchmark
// runs fullSizes; the smoke test runs toySizes through the same code.
type sizes struct {
	ingestBatches  int // MODIS daily batches per ingest pass
	modisCycles    int // MODIS cycles of query_local and elastic_cycle
	aisCycles      int // AIS cycles of query_local and elastic_cycle
	aisCells       int // AIS broadcasts per cycle before the seasonal factor
	aisSets        int // AIS datasets one query_local pass sweeps
	elasticAisSets int // AIS datasets successive elastic_cycle passes rotate over
}

var (
	fullSizes = sizes{ingestBatches: 40, modisCycles: 14, aisCycles: 12, aisCells: 6000, aisSets: 16, elasticAisSets: 3}
	toySizes  = sizes{ingestBatches: 3, modisCycles: 4, aisCycles: 4, aisCells: 600, aisSets: 2, elasticAisSets: 2}
)

const (
	ingestNodes     = 4
	queryNodes      = 8
	elasticInitial  = 2
	elasticStep     = 2
	elasticMaxNodes = 8
	// elasticCapacityDiv sizes a node at 1/7 of the workload's total, so a
	// run that starts on two nodes must grow to hold it.
	elasticCapacityDiv = 7
)

// input is one generator's pre-generated workload: every cycle's batch,
// made once in set-up so that measured time never includes generation.
type input struct {
	gen     workload.Generator
	batches [][]*array.Chunk
	bytes   []int64 // payload bytes per batch
	total   int64
	chunks  int
}

// genCost is what generating inputs cost, summed over set-up.
type genCost struct {
	ns      int64
	batches int
}

func generate(g workload.Generator, cost *genCost) (*input, error) {
	in := &input{gen: g}
	for i := 0; i < g.Cycles(); i++ {
		t0 := time.Now()
		b, err := g.Batch(i)
		cost.ns += int64(time.Since(t0))
		cost.batches++
		if err != nil {
			return nil, fmt.Errorf("generating %s cycle %d: %w", g.Name(), i, err)
		}
		n := workload.BatchBytes(b)
		in.batches = append(in.batches, b)
		in.bytes = append(in.bytes, n)
		in.total += n
		in.chunks += len(b)
	}
	return in, nil
}

func modisInput(seed int64, cycles int, cost *genCost) (*input, error) {
	g, err := workload.NewMODIS(workload.MODISConfig{Cycles: cycles, Seed: seed})
	if err != nil {
		return nil, err
	}
	return generate(g, cost)
}

// subSeed derives the seed of the i-th of several datasets a workload
// makes from one --seed. The first keeps the seed itself (so seed 0 still
// selects the generator's built-in one); the others must differ from it
// and from the sub-seeds of neighbouring --seed values.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return (seed+1)*1_000_003 + int64(i)*7919
}

func aisInput(seed int64, sz sizes, cost *genCost) (*input, error) {
	g, err := workload.NewAIS(workload.AISConfig{Cycles: sz.aisCycles, CellsPerCycle: sz.aisCells, Seed: seed})
	if err != nil {
		return nil, err
	}
	return generate(g, cost)
}

// lane is the single closed-loop client: it owns the tracer (nil on the
// untraced run) and the recorder its operations report to.
type lane struct {
	tr  *tracer
	rec *recorder
}

// clusterCfg is the part of a cluster's configuration the workloads vary.
// The scheme is the k-d tree throughout.
type clusterCfg struct {
	nodes       int
	replication int
	capacity    int64
	parallelism int  // 0 gates scans at GOMAXPROCS
	wire        bool // TCP transport; false is the nil transport
}

// newCluster builds a fresh cluster for one pass with the generator's
// arrays defined and its replicated array in place. On the traced run the
// partitioner and the transport are decorated.
func (l *lane) newCluster(cfg clusterCfg, g workload.Generator) (*cluster.Cluster, error) {
	var tp transport.Transport
	if cfg.wire {
		tp = transport.NewTCP(transport.TCPOptions{})
		if l.tr != nil {
			tp = newTracedTransport(tp, l.tr, &l.rec.seams)
		}
	}
	geom := g.Geometry()
	c, err := cluster.New(cluster.Config{
		InitialNodes:      cfg.nodes,
		NodeCapacity:      cfg.capacity,
		Parallelism:       cfg.parallelism,
		ReplicationFactor: cfg.replication,
		Transport:         tp,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			p, err := partition.New(partition.KindKdTree, initial, geom, partition.Options{})
			if err == nil && l.tr != nil {
				p = &tracedPartitioner{Partitioner: p, tr: l.tr, n: &l.rec.seams}
			}
			return p, err
		},
	})
	if err != nil {
		if tp != nil {
			_ = tp.Close()
		}
		return nil, err
	}
	for _, s := range g.Schemas() {
		if err := c.DefineArray(s); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	if rs, rchunks := g.Replicated(); rs != nil {
		if _, err := c.ReplicateArray(rs, rchunks); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// unbounded is a node capacity no ingest workload reaches.
const unbounded = int64(1) << 50

// fingerprint hashes the cluster's data state: every node's primaries in
// canonical order, each as its EncodeChunk bytes, and with replicas set
// every node's replica payloads too. Two clusters with one fingerprint
// hold the same bytes in the same places.
func fingerprint(c *cluster.Cluster, replicas bool) (string, error) {
	h := sha256.New()
	var word [8]byte
	put := func(kind byte, id partition.NodeID, ch *array.Chunk) error {
		enc, err := array.EncodeChunk(ch)
		if err != nil {
			return fmt.Errorf("encoding %s: %w", ch.Ref(), err)
		}
		binary.LittleEndian.PutUint64(word[:], uint64(id))
		h.Write([]byte{kind})
		h.Write(word[:])
		h.Write([]byte(ch.Ref().String()))
		binary.LittleEndian.PutUint64(word[:], uint64(len(enc)))
		h.Write(word[:])
		h.Write(enc)
		return nil
	}
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, ch := range node.Chunks() {
			if err := put('p', id, ch); err != nil {
				return "", err
			}
		}
		if !replicas {
			continue
		}
		for _, ch := range node.Replicas() {
			if err := put('r', id, ch); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// memSnap is the part of runtime.MemStats the benchmark reports on.
type memSnap struct {
	alloc, mallocs uint64
	gcs            uint32
	pauseNs        uint64
	heapInuse      uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, m.NumGC, m.PauseTotalNs, m.HeapInuse}
}

// stopwatch times one call.
func stopwatch(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
