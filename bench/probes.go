package main

import (
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// The probes below measure a layer by calling its public functions
// directly on one MODIS daily batch, single goroutine. They are the same
// on every workload: they describe the layer, not the workload's use of it.

const probeReps = 9

// medianOf runs f reps times and returns the median wall time.
func medianOf(reps int, f func() error) (time.Duration, error) {
	var s samples
	for i := 0; i < reps; i++ {
		d, err := stopwatch(f)
		if err != nil {
			return 0, err
		}
		s = append(s, float64(d))
	}
	return time.Duration(s.median()), nil
}

// mallocsOf returns the heap allocations one call of f makes.
func mallocsOf(f func() error) (float64, error) {
	before := readMem()
	err := f()
	return float64(readMem().mallocs - before.mallocs), err
}

// probeArray times the batch codec on one ingest batch.
func probeArray(m *metricSet, in *input) error {
	batch, payload := in.batches[0], float64(in.bytes[0])
	lookup := func(name string) (*array.Schema, bool) {
		for _, s := range in.gen.Schemas() {
			if s.Name == name {
				return s, true
			}
		}
		return nil, false
	}
	var enc []byte
	encode := func() (err error) { enc, err = array.EncodeChunkBatch(batch); return }
	decode := func() error { _, err := array.DecodeChunkBatch(lookup, enc); return err }

	dEnc, err := medianOf(probeReps, encode)
	if err != nil {
		return fmt.Errorf("array probe: encode: %w", err)
	}
	dDec, err := medianOf(probeReps, decode)
	if err != nil {
		return fmt.Errorf("array probe: decode: %w", err)
	}
	encAllocs, _ := mallocsOf(encode)
	decAllocs, _ := mallocsOf(decode)
	var cells int
	for _, ch := range batch {
		cells += ch.Len()
	}
	m.set("array.encode_batch_mb_s", ratio(payload/mb, dEnc.Seconds()))
	m.set("array.decode_batch_mb_s", ratio(payload/mb, dDec.Seconds()))
	m.set("array.encode_allocs_per_chunk", ratio(encAllocs, float64(len(batch))))
	m.set("array.decode_allocs_per_chunk", ratio(decAllocs, float64(len(batch))))
	m.set("array.decode_allocs_per_cell", ratio(decAllocs, float64(cells)))
	m.set("array.wire_bytes_per_payload_byte", ratio(float64(len(enc)), payload))
	return nil
}

// emptyState is a cluster with nothing stored, which is what a
// partitioner placing the first batch consults.
type emptyState struct{ nodes []partition.NodeID }

func (s emptyState) Nodes() []partition.NodeID                   { return s.nodes }
func (emptyState) NodeLoad(partition.NodeID) int64               { return 0 }
func (emptyState) NodeChunks(partition.NodeID) []array.ChunkInfo { return nil }
func (emptyState) Owner(array.ChunkKey) (partition.NodeID, bool) { return 0, false }

// probePartitioners times PlaceBatch of every scheme on one batch, each
// repetition on a fresh table.
func probePartitioners(m *metricSet, in *input) error {
	infos := make([]array.ChunkInfo, len(in.batches[0]))
	for i, ch := range in.batches[0] {
		infos[i] = array.ChunkInfo{Ref: ch.Ref(), Size: ch.SizeBytes()}
	}
	array.SortChunkInfos(infos)
	st := emptyState{nodes: []partition.NodeID{0, 1, 2, 3}}
	for _, kind := range partition.Kinds() {
		var s samples
		for rep := 0; rep < probeReps; rep++ {
			p, err := partition.New(kind, st.nodes, in.gen.Geometry(), partition.Options{NodeCapacity: unbounded})
			if err != nil {
				return fmt.Errorf("partition probe: %s: %w", kind, err)
			}
			d, err := stopwatch(func() error { _, err := p.PlaceBatch(infos, st); return err })
			if err != nil {
				return fmt.Errorf("partition probe: %s: %w", kind, err)
			}
			s = append(s, float64(d))
		}
		m.set("partition.place_ns_per_chunk."+kind, ratio(s.median(), float64(len(infos))))
	}
	return nil
}

// probeOwnerLookup times the catalog's Owner on a cluster holding one batch.
func probeOwnerLookup(m *metricSet, in *input) error {
	quiet := &lane{rec: newRecorder()}
	c, err := quiet.newCluster(clusterCfg{nodes: ingestNodes, replication: 1, capacity: unbounded}, in.gen)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Insert(in.batches[0]); err != nil {
		return fmt.Errorf("owner probe: %w", err)
	}
	keys := make([]array.ChunkKey, len(in.batches[0]))
	for i, ch := range in.batches[0] {
		keys[i] = ch.Key()
	}
	const rounds = 400
	d, err := medianOf(probeReps, func() error {
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, ok := c.Owner(k); !ok {
					return fmt.Errorf("owner probe: chunk %s not catalogued", k)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cluster.owner_lookup_ns", ratio(float64(d), float64(rounds*len(keys))))
	return nil
}

// parSpeedup is the wall time of the suite pair at parallelism 1 over its
// wall time at the default (GOMAXPROCS-gated) parallelism.
func (w *queryWorkload) parSpeedup() (float64, error) {
	quiet := &lane{rec: newRecorder()}
	in := w.in[:2] // MODIS and the first AIS dataset
	clusters := make([]*cluster.Cluster, len(in))
	for i, in := range in {
		c, err := w.preload(quiet, in, 0)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clusters[i] = c
	}
	pair := func(parallelism int) (time.Duration, error) {
		for _, c := range clusters {
			c.SetParallelism(parallelism)
		}
		return medianOf(3, func() error {
			for i, in := range in {
				if _, _, err := quiet.runSuite(clusters[i], in, len(in.batches)-1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	serial, err := pair(1)
	if err != nil {
		return 0, err
	}
	parallel, err := pair(0)
	if err != nil {
		return 0, err
	}
	return ratio(float64(serial), float64(parallel)), nil
}
