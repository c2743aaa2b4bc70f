package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// options are the settings of one run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	sz       sizes
	setups   int // set-up repetitions; setup_s is their median
}

// result is what one run of one workload measured.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Passes    int
	Metrics   map[string]metric
	Failures  []string
	TraceFile string
	Spans     []spanRow // --trace 1: where the time went, by span name

	// kept for the smoke test
	spans                  []span
	fingerprint, tracedFpr string
}

// spanRow sums the spans of one name over the traced passes.
type spanRow struct {
	Name     string
	Calls    float64
	BusyMs   float64
	SelfFrac float64 // share of the operations' wall time spent in the span itself
}

// opClass is the operation op_ms_p50 is the median of, per workload.
var opClass = map[string]string{
	"ingest_local":  opIngest, // one MODIS daily batch, plan + execute
	"ingest_wire":   opIngest,
	"query_local":   opPair,  // MODIS suite then AIS suite, twelve queries
	"elastic_cycle": opCycle, // reorganise if due + ingest + suite
}

// runWorkload sets the workload up, runs passes for the time budget —
// untraced, and with trace set alternately untraced and traced — and
// computes the metrics: end to end without trace, per layer with.
func runWorkload(name string, opt options) (*result, error) {
	w, err := newWorkload(name, opt.seed, opt.sz)
	if err != nil {
		return nil, err
	}
	var setups samples
	for i := 0; i < opt.setups; i++ {
		d, err := stopwatch(w.setup)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()

	plain := &lane{rec: newRecorder()}
	var traced *lane
	if opt.trace {
		traced = &lane{tr: newTracer(), rec: newRecorder()}
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	before := readMem()
	t0 := time.Now()
	for {
		if err := w.pass(plain); err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", name, plain.rec.passes, err)
		}
		if traced != nil {
			if err := w.pass(traced); err != nil {
				return nil, fmt.Errorf("%s: traced pass %d: %w", name, traced.rec.passes, err)
			}
		}
		if time.Since(t0) >= budget {
			break
		}
	}
	measured := time.Since(t0)
	after := readMem()

	res := &result{
		Workload:    name,
		Attempted:   plain.rec.attempted,
		Failed:      plain.rec.failed,
		Passes:      plain.rec.passes,
		Failures:    plain.rec.failures,
		fingerprint: plain.rec.fingerprint,
	}
	var m *metricSet
	if traced == nil {
		m = newMetricSet(endToEnd)
		endToEndMetrics(m, name, plain.rec, setups)
	} else {
		res.Attempted += traced.rec.attempted
		res.Failed += traced.rec.failed
		res.Failures = append(res.Failures, traced.rec.failures...)
		res.tracedFpr = traced.rec.fingerprint
		res.spans = traced.tr.snapshot()
		if plain.rec.fingerprint != traced.rec.fingerprint {
			res.Failed++
			res.Failures = append(res.Failures, "the traced passes ended in a different state than the untraced ones: the decorators are not transparent")
		}
		m = newMetricSet(perLayer)
		driverMetrics(m, name, plain.rec, traced.rec, measured, before, after)
		res.Spans = layerMetrics(m, traced, res.spans)
		if err := probeMetrics(m, w); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if res.TraceFile, err = writeTrace(opt.traceDir, name, res.spans); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", name, err)
		}
	}
	if res.Metrics, err = m.finish(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics computes what a user of the store would see.
//
//	op_ms_p50    median wall time of the workload's operation (opClass)
//	pass_ms_p25  the undisturbed pass: every operation of the pass (drills
//	             and degraded suites included) at its lower quartile across
//	             passes, summed (recorder.typicalPassNs)
//	work_mb_s    median rate of the operations on the data path, payload
//	             over wall time: batches by ingested bytes (ingest_*),
//	             suites by bytes scanned (query_local), batches and
//	             scale-outs by ingested and moved bytes (elastic_cycle)
//	alloc_mb     median over passes of the bytes allocated inside a pass's
//	             operations (recorder.typicalAllocBytes)
func endToEndMetrics(m *metricSet, name string, r *recorder, setups samples) {
	m.set("setup_s", setups.median())
	m.set("op_ms_p50", r.lat[opClass[name]].median()/ms)
	m.set("pass_ms_p25", r.typicalPassNs()/ms)
	m.set("work_mb_s", r.workRates.median())
	m.set("alloc_mb", r.typicalAllocBytes()/mb)
}

// driverMetrics are the per-class numbers of the untraced passes, the
// exact outcome facts, the tracing overhead and the runtime's counters.
func driverMetrics(m *metricSet, name string, plain, traced *recorder, measured time.Duration, before, after memSnap) {
	lat := plain.lat
	m.set("driver.ingest_batch_ms_p50", lat[opIngest].median()/ms)
	m.set("driver.ingest_batch_ms_p99", lat[opIngest].quantile(0.99)/ms)
	m.set("driver.ingest_mb_s", ratio(float64(plain.payload)/mb, lat[opIngest].sum()/1e9))
	m.set("driver.suite_ms_p50", lat[opSuite].median()/ms)
	m.set("driver.suite_ms_p99", lat[opSuite].quantile(0.99)/ms)
	m.set("driver.cycle_ms_p50", lat[opCycle].median()/ms)
	m.set("driver.cycle_ms_p99", lat[opCycle].quantile(0.99)/ms)
	m.set("driver.reorg_ms_p50", lat[opReorg].median()/ms)
	m.set("driver.reorg_ms_p99", lat[opReorg].quantile(0.99)/ms)
	m.set("driver.reorg_mb_s", ratio(float64(plain.moved)/mb, lat[opReorg].sum()/1e9))
	m.set("driver.recover_ms_p50", lat[opRecover].median()/ms)
	m.set("driver.recover_ms_max", lat[opRecover].max()/ms)
	m.set("driver.degraded_suite_ms_p50", lat[opDegraded].median()/ms)
	for _, class := range []string{opIngest, opSuite, opCycle, opReorg, opRecover} {
		m.set("driver.samples."+class, float64(len(lat[class])))
	}
	m.set("driver.sim_node_seconds", plain.nodeSeconds)
	m.set("driver.storage_rsd_pct", plain.rsd*100)
	m.set("driver.failed_frac", ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted)))
	// Passes alternate untraced and traced, so both medians saw the same
	// machine; their difference is what recording spans costs.
	base := plain.typicalPassNs()
	m.set("driver.trace_overhead_frac", ratio(traced.typicalPassNs()-base, base))
	m.set("driver.measured_s", measured.Seconds())
	m.set("driver.passes", float64(plain.passes+traced.passes))
	m.set("driver.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	m.set("driver.num_cpu", float64(runtime.NumCPU()))

	payloadKB := float64(plain.payload+traced.payload) / 1e3
	if name == "query_local" {
		payloadKB = float64(plain.scanned+traced.scanned) / 1e3
	}
	m.set("runtime.mallocs_per_payload_kb", ratio(plain.mallocs+traced.mallocs, payloadKB))
	m.set("runtime.gc_cycles", float64(after.gcs-before.gcs))
	m.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/ms)
	m.set("runtime.peak_heap_mb", float64(max(plain.peakHeap, traced.peakHeap))/mb)
}

// layerMetrics reads the layers' work off the traced passes: span
// durations by name, the seam counts, and each layer's share of the
// operations' wall time.
func layerMetrics(m *metricSet, l *lane, spans []span) []spanRow {
	r := l.rec
	passes := float64(r.passes)
	dur := make(map[string]samples)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
	}
	self := selfTimes(spans)
	selfByName := make(map[string]float64)
	selfByLayer := make(map[string]float64)
	var rootNs float64
	for i, s := range spans {
		selfByName[s.Name] += self[i]
		selfByLayer[layerOf(s.Name)] += self[i]
		if s.Parent == 0 {
			rootNs += float64(s.End - s.Start)
		}
	}
	for _, layer := range traceLayers {
		m.set("trace.self_frac."+layer, ratio(selfByLayer[layer], rootNs))
	}

	placed := float64(r.seams.placed.Load())
	m.set("partition.place_ns_per_chunk", ratio(dur["partition.place_batch"].sum(), placed))
	m.set("partition.place_chunks", ratio(placed, passes))
	m.set("partition.addnodes_us_p50", dur["partition.add_nodes"].median()/us)
	m.set("partition.moves_per_scaleout", ratio(float64(r.seams.moves.Load()), float64(r.scaleOuts)))

	m.set("cluster.plan_insert_us_p50", dur["cluster.plan_insert"].median()/us)
	m.set("cluster.execute_plan_us_p50", dur["cluster.execute_plan"].median()/us)
	m.set("cluster.plan_self_frac", ratio(selfByName["cluster.plan_insert"], rootNs))
	m.set("cluster.plan_scaleout_us_p50", dur["cluster.plan_scaleout"].median()/us)
	m.set("cluster.execute_rebalance_ms_p50", dur["cluster.execute_rebalance"].median()/ms)
	m.set("cluster.moved_mb", ratio(float64(r.moved)/mb, passes))
	m.set("cluster.moved_chunks", ratio(float64(r.movedChunks), passes))
	m.set("cluster.frame_bytes_per_moved_byte", ratio(float64(r.frameBytes), float64(r.moved)))
	m.set("cluster.fail_node_us_p50", dur["cluster.fail_node"].median()/us)
	m.set("cluster.plan_recover_ms_p50", dur["cluster.plan_recover"].median()/ms)
	m.set("cluster.execute_recover_ms_p50", dur["cluster.execute_recover"].median()/ms)
	m.set("cluster.recover_node_ms_p50", dur["cluster.recover_node"].median()/ms)
	m.set("cluster.validate_ms", r.validateNs.median()/ms)
	m.set("cluster.sim_per_wall_reorg", ratio(r.simReorg, r.wallReorg))
	wireEq := 0.0
	if r.wirePredEqMeas {
		wireEq = 1
	}
	m.set("cluster.wire_pred_eq_meas", wireEq)

	push := dur["transport.push"]
	payload := float64(r.seams.pushPayload.Load())
	m.set("transport.push_calls", ratio(float64(len(push)), passes))
	m.set("transport.push_busy_ms", ratio(push.sum()/ms, passes))
	m.set("transport.push_mb_s", ratio(payload/mb, push.sum()/1e9))
	m.set("transport.frame_bytes_per_payload_byte", ratio(float64(r.seams.pushFrame.Load()), payload))
	decode := dur["transport.deliver_decode"].sum()
	m.set("transport.deliver_decode_busy_ms", ratio(decode/ms, passes))
	m.set("transport.deliver_store_busy_ms", ratio((dur["cluster.deliver_store"].sum()-decode)/ms, passes))
	m.set("transport.push_failed", ratio(float64(r.seams.pushFailed.Load()), passes))
	fetch := dur["transport.fetch"]
	m.set("transport.fetch_calls", ratio(float64(len(fetch)), passes))
	m.set("transport.fetch_us_p50", fetch.median()/us)
	m.set("transport.fetch_busy_ms", ratio(fetch.sum()/ms, passes))
	m.set("transport.fetches_per_suite", ratio(float64(len(fetch)), float64(r.suites)))
	m.set("transport.announce_calls", ratio(float64(len(dur["transport.announce"])), passes))

	for _, suite := range []string{"modis", "ais"} {
		for _, op := range opNames {
			name := "query." + suite + "_" + op
			m.set(name+"_ms_p50", dur[name].median()/ms)
		}
	}
	suites := float64(r.suites)
	m.set("query.bytes_scanned_per_suite", ratio(float64(r.scanned), suites))
	m.set("query.bytes_shuffled_per_suite", ratio(float64(r.shuffled), suites))
	m.set("query.alloc_mb_per_suite", r.suiteAllocB.median()/mb)

	rows := make([]spanRow, 0, len(dur))
	for name, d := range dur {
		rows = append(rows, spanRow{name, ratio(float64(len(d)), passes), ratio(d.sum()/ms, passes), ratio(selfByName[name], rootNs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfFrac > rows[j].SelfFrac })
	return rows
}

// probeMetrics runs the direct probes of the layers' public functions.
func probeMetrics(m *metricSet, w workloadRun) error {
	runtime.GC() // the passes' garbage is not the probes' to collect
	cost, payload, chunks := w.inputs()
	m.set("workload.gen_ms_per_batch", ratio(float64(cost.ns)/ms, float64(cost.batches)))
	m.set("workload.payload_mb", float64(payload)/mb)
	m.set("workload.chunks", float64(chunks))

	in := w.modis()
	if err := probeArray(m, in); err != nil {
		return err
	}
	if err := probePartitioners(m, in); err != nil {
		return err
	}
	if err := probeOwnerLookup(m, in); err != nil {
		return err
	}
	speedup := 0.0
	if q, ok := w.(*queryWorkload); ok {
		var err error
		if speedup, err = q.parSpeedup(); err != nil {
			return fmt.Errorf("parallel speed-up probe: %w", err)
		}
	}
	m.set("query.par_speedup", speedup)
	return nil
}
