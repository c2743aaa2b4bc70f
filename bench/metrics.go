package main

import (
	"fmt"
	"sort"

	"repro/internal/partition"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists
// exactly these, in this order; the smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the store would see, measured on the
// untraced run, and reported by every workload. What "operation" and
// "work" mean on each workload is fixed in run.go (endToEndMetrics).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.10},
	{"pass_ms_p25", "ms", "lower", 0.15},
	{"work_mb_s", "MB/s", "higher", 0.10},
	{"alloc_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported by the --trace 1
// run. Counts and busy times are per traced pass. A layer that does no
// work on a workload reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(better string, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	const lower, higher = "lower", "higher"

	add(lower, "ms", "workload.gen_ms_per_batch")
	add(lower, "MB", "workload.payload_mb")
	add(lower, "count", "workload.chunks")

	add(lower, "ns", "partition.place_ns_per_chunk")
	add(lower, "count", "partition.place_chunks")
	add(lower, "us", "partition.addnodes_us_p50")
	add(lower, "count", "partition.moves_per_scaleout")
	for _, kind := range partition.Kinds() {
		add(lower, "ns", "partition.place_ns_per_chunk."+kind)
	}

	add(lower, "us", "cluster.plan_insert_us_p50", "cluster.execute_plan_us_p50")
	add(lower, "frac", "cluster.plan_self_frac")
	add(lower, "us", "cluster.plan_scaleout_us_p50")
	add(lower, "ms", "cluster.execute_rebalance_ms_p50")
	add(lower, "MB", "cluster.moved_mb")
	add(lower, "count", "cluster.moved_chunks")
	add(lower, "ratio", "cluster.frame_bytes_per_moved_byte")
	add(lower, "us", "cluster.fail_node_us_p50")
	add(lower, "ms", "cluster.plan_recover_ms_p50", "cluster.execute_recover_ms_p50", "cluster.recover_node_ms_p50")
	add(lower, "ns", "cluster.owner_lookup_ns")
	add(lower, "ms", "cluster.validate_ms")
	add(higher, "ratio", "cluster.sim_per_wall_reorg")
	add(higher, "bool", "cluster.wire_pred_eq_meas")

	add(higher, "MB/s", "array.encode_batch_mb_s", "array.decode_batch_mb_s")
	add(lower, "count", "array.encode_allocs_per_chunk", "array.decode_allocs_per_chunk", "array.decode_allocs_per_cell")
	add(lower, "ratio", "array.wire_bytes_per_payload_byte")

	add(lower, "count", "transport.push_calls")
	add(lower, "ms", "transport.push_busy_ms")
	add(higher, "MB/s", "transport.push_mb_s")
	add(lower, "ratio", "transport.frame_bytes_per_payload_byte")
	add(lower, "ms", "transport.deliver_decode_busy_ms", "transport.deliver_store_busy_ms")
	add(lower, "count", "transport.push_failed", "transport.fetch_calls")
	add(lower, "us", "transport.fetch_us_p50")
	add(lower, "ms", "transport.fetch_busy_ms")
	add(lower, "count", "transport.fetches_per_suite", "transport.announce_calls")

	for _, suite := range []string{"modis", "ais"} {
		for _, op := range opNames {
			add(lower, "ms", "query."+suite+"_"+op+"_ms_p50")
		}
	}
	add(lower, "bytes", "query.bytes_scanned_per_suite", "query.bytes_shuffled_per_suite")
	add(lower, "MB", "query.alloc_mb_per_suite")
	add(higher, "ratio", "query.par_speedup")

	// Where the wall time of the traced operations went, by layer.
	for _, layer := range traceLayers {
		add(lower, "frac", "trace.self_frac."+layer)
	}

	// What the driver saw per operation class on the untraced passes of
	// the same run: the phase numbers behind the end-to-end metrics, and
	// the tails, which do not repeat well enough on a shared box to gate.
	add(lower, "ms", "driver.ingest_batch_ms_p50", "driver.ingest_batch_ms_p99")
	add(higher, "MB/s", "driver.ingest_mb_s")
	add(lower, "ms", "driver.suite_ms_p50", "driver.suite_ms_p99", "driver.cycle_ms_p50", "driver.cycle_ms_p99",
		"driver.reorg_ms_p50", "driver.reorg_ms_p99")
	add(higher, "MB/s", "driver.reorg_mb_s")
	add(lower, "ms", "driver.recover_ms_p50", "driver.recover_ms_max", "driver.degraded_suite_ms_p50")
	for _, class := range []string{opIngest, opSuite, opCycle, opReorg, opRecover} {
		add(higher, "count", "driver.samples."+class)
	}
	add(lower, "s", "driver.sim_node_seconds")
	add(lower, "%", "driver.storage_rsd_pct")
	add(lower, "frac", "driver.failed_frac", "driver.trace_overhead_frac")
	add(higher, "s", "driver.measured_s")
	add(higher, "count", "driver.passes", "driver.gomaxprocs", "driver.num_cpu")

	add(lower, "count", "runtime.mallocs_per_payload_kb", "runtime.gc_cycles")
	add(lower, "ms", "runtime.gc_pause_ms")
	add(lower, "MB", "runtime.peak_heap_mb")
	return defs
}

// traceLayers are the layers a span can belong to (the prefix of its name).
var traceLayers = []string{"partition", "cluster", "transport", "query", "driver"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a list of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

// finish returns the values by name with their units. A definition no one
// set, or a value no definition names, is a bug in the benchmark.
func (m *metricSet) finish() (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(m.values) != len(m.defs) {
		var extra []string
		for name := range m.values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are measured but not defined", extra)
	}
	return out, nil
}
