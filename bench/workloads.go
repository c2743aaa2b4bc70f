package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/partition"
)

// workloadRun is one of the four workloads bound to a seed and a size.
type workloadRun interface {
	// setup makes the inputs from the seed and computes the references
	// every pass's outputs are checked against. Each call starts over.
	setup() error
	// pass runs the workload once on fresh clusters, reports its
	// operations to the lane's recorder and verifies the outcome.
	pass(l *lane) error
	// inputs describes what the last setup generated: the generation
	// cost, and the payload bytes and chunks one pass ingests.
	inputs() (cost genCost, payload int64, chunks int)
	// modis returns the workload's MODIS input, which the layer probes use.
	modis() *input
}

var workloadNames = []string{"ingest_local", "ingest_wire", "query_local", "elastic_cycle"}

func newWorkload(name string, seed int64, sz sizes) (workloadRun, error) {
	switch name {
	case "ingest_local":
		return &ingestWorkload{seed: seed, sz: sz}, nil
	case "ingest_wire":
		return &ingestWorkload{seed: seed, sz: sz, wire: true}, nil
	case "query_local":
		return &queryWorkload{seed: seed, sz: sz}, nil
	case "elastic_cycle":
		return &elasticWorkload{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// --- steps shared by the workloads -----------------------------------------

// ingest plans and executes one batch under the lane's open span and
// returns its wall time and simulated duration.
func (l *lane) ingest(c *cluster.Cluster, batch []*array.Chunk) (time.Duration, cluster.Duration, error) {
	t0 := time.Now()
	id := l.tr.push("cluster.plan_insert")
	plan, err := c.PlanInsert(batch)
	l.tr.pop(id)
	if err != nil {
		return 0, 0, err
	}
	id = l.tr.push("cluster.execute_plan")
	sim, err := c.ExecutePlan(plan)
	l.tr.pop(id)
	return time.Since(t0), sim, err
}

// suite runs one six-query suite under the lane's open span, records it
// under class and accounts its scan volume.
func (l *lane) suite(c *cluster.Cluster, in *input, cycle int, class string) (suiteAnswers, time.Duration, error) {
	got, d, err := l.runSuite(c, in, cycle)
	if err != nil {
		return got, d, fmt.Errorf("%s suite at cycle %d: %w", in.gen.Name(), cycle, err)
	}
	l.rec.op(class, d)
	l.rec.suites++
	for _, r := range got.perQuery {
		l.rec.scanned += r.BytesScanned
		l.rec.shuffled += r.BytesShuffled
	}
	return got, d, nil
}

// validate audits the cluster outside measured time.
func (l *lane) validate(c *cluster.Cluster) error {
	d, err := stopwatch(c.Validate)
	l.rec.validateNs = append(l.rec.validateNs, float64(d))
	l.rec.check(err == nil, "Validate: %v", err)
	return err
}

// --- ingest_local, ingest_wire ---------------------------------------------

// ingestWorkload inserts the MODIS daily batches into a fresh four-node
// cluster: in process at replication 1 (ingest_local), or over TCP at
// replication 2 (ingest_wire). Both must end with the primaries of the
// in-process run, byte for byte.
type ingestWorkload struct {
	seed int64
	sz   sizes
	wire bool

	in   *input
	cost genCost
	ref  ingestOutcome
}

// ingestOutcome is what an ingest pass leaves behind.
type ingestOutcome struct {
	primaries string // fingerprint of every node's primaries
	chunks    int
	bytes     int64
	rsd       float64
}

func (w *ingestWorkload) cfg(wire bool) clusterCfg {
	cfg := clusterCfg{nodes: ingestNodes, replication: 1, capacity: unbounded}
	if wire {
		cfg.replication, cfg.wire = 2, true
	}
	return cfg
}

func (w *ingestWorkload) setup() error {
	w.cost = genCost{}
	in, err := modisInput(w.seed, w.sz.ingestBatches, &w.cost)
	if err != nil {
		return err
	}
	w.in = in
	// The reference is the in-process run, whichever workload this is.
	w.ref, err = w.run(&lane{rec: newRecorder()}, w.cfg(false), true)
	return err
}

func (w *ingestWorkload) inputs() (genCost, int64, int) { return w.cost, w.in.total, w.in.chunks }
func (w *ingestWorkload) modis() *input                 { return w.in }

func (w *ingestWorkload) pass(l *lane) error {
	// Hashing every payload costs more than the in-process pass itself, so
	// the full fingerprint is taken on each recorder's first pass and the
	// cheap facts (Validate, chunk count, bytes, balance) on every pass.
	first := l.rec.passes == 0
	got, err := w.run(l, w.cfg(w.wire), first)
	if err != nil {
		return err
	}
	if first {
		l.rec.check(got.primaries == w.ref.primaries,
			"primaries fingerprint %s differs from the in-process reference %s", got.primaries, w.ref.primaries)
		l.rec.fingerprint = got.primaries
	}
	l.rec.check(got.chunks == w.ref.chunks && got.bytes == w.ref.bytes && got.rsd == w.ref.rsd,
		"state (chunks=%d bytes=%d rsd=%v) differs from the reference (chunks=%d bytes=%d rsd=%v)",
		got.chunks, got.bytes, got.rsd, w.ref.chunks, w.ref.bytes, w.ref.rsd)
	l.rec.rsd = got.rsd
	return nil
}

func (w *ingestWorkload) run(l *lane, cfg clusterCfg, hash bool) (ingestOutcome, error) {
	c, err := l.newCluster(cfg, w.in.gen)
	if err != nil {
		return ingestOutcome{}, err
	}
	defer c.Close()
	l.rec.beginPass(0)
	for i, batch := range w.in.batches {
		root := l.tr.root("driver.ingest_batch")
		d, _, err := l.ingest(c, batch)
		l.tr.pop(root)
		if err != nil {
			return ingestOutcome{}, fmt.Errorf("batch %d: %w", i, err)
		}
		l.rec.op(opIngest, d)
		l.rec.work(w.in.bytes[i], d)
		l.rec.payload += w.in.bytes[i]
		l.rec.passOp(d)
	}
	l.rec.endPass()
	if err := l.validate(c); err != nil {
		return ingestOutcome{}, err
	}
	out := ingestOutcome{chunks: c.NumChunks(), bytes: c.TotalBytes(), rsd: c.RSD()}
	if hash {
		if out.primaries, err = fingerprint(c, false); err != nil {
			return out, err
		}
	}
	return out, nil
}

// --- query_local -------------------------------------------------------------

// queryWorkload alternates the two six-query suites on preloaded
// eight-node in-process clusters: one holding every MODIS cycle, and one
// per AIS dataset holding every AIS cycle. A pass sweeps the AIS datasets,
// running the MODIS suite then that dataset's AIS suite on the newest
// cycle. What the AIS queries cost depends on where a seed puts the ports,
// by a tenth from one seed to the next; sweeping several datasets made
// from the one seed averages that out, so the metrics answer to the code
// and not to the draw.
type queryWorkload struct {
	seed int64
	sz   sizes

	in   []*input // MODIS, then the AIS datasets
	cost genCost
	ref  []suiteAnswers // per input, at parallelism 1
}

func (w *queryWorkload) setup() error {
	w.cost = genCost{}
	modis, err := modisInput(w.seed, w.sz.modisCycles, &w.cost)
	if err != nil {
		return err
	}
	w.in = []*input{modis}
	for i := 0; i < w.sz.aisSets; i++ {
		ais, err := aisInput(subSeed(w.seed, i), w.sz, &w.cost)
		if err != nil {
			return err
		}
		w.in = append(w.in, ais)
	}
	quiet := &lane{rec: newRecorder()}
	w.ref = make([]suiteAnswers, len(w.in))
	for i, in := range w.in {
		c, err := w.preload(quiet, in, 1)
		if err != nil {
			return err
		}
		w.ref[i], _, err = quiet.runSuite(c, in, len(in.batches)-1)
		c.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *queryWorkload) inputs() (cost genCost, payload int64, chunks int) {
	for _, in := range w.in {
		payload += in.total
		chunks += in.chunks
	}
	return w.cost, payload, chunks
}
func (w *queryWorkload) modis() *input { return w.in[0] }

// preload builds a fresh cluster holding every cycle of the input. No
// operation is open while it runs, so the traced run records nothing of it.
func (w *queryWorkload) preload(l *lane, in *input, parallelism int) (*cluster.Cluster, error) {
	c, err := l.newCluster(clusterCfg{nodes: queryNodes, replication: 1, capacity: unbounded, parallelism: parallelism}, in.gen)
	if err != nil {
		return nil, err
	}
	for i, batch := range in.batches {
		if _, err := c.Insert(batch); err != nil {
			c.Close()
			return nil, fmt.Errorf("preloading %s cycle %d: %w", in.gen.Name(), i, err)
		}
	}
	return c, nil
}

func (w *queryWorkload) pass(l *lane) error {
	clusters := make([]*cluster.Cluster, len(w.in))
	for i, in := range w.in {
		c, err := w.preload(l, in, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		clusters[i] = c
	}
	l.rec.beginPass(0)
	for ais := 1; ais < len(w.in); ais++ {
		var pair time.Duration
		for _, i := range []int{0, ais} {
			in := w.in[i]
			root := l.tr.root("driver.suite")
			got, d, err := l.suite(clusters[i], in, len(in.batches)-1, opSuite)
			l.tr.pop(root)
			if err != nil {
				return err
			}
			pair += d
			var scanned int64
			for _, r := range got.perQuery {
				scanned += r.BytesScanned
			}
			l.rec.work(scanned, d)
			msg, ok := sameAnswers(w.ref[i], got, false)
			l.rec.check(ok, "%s suite: %s", in.gen.Name(), msg)
		}
		// A pair is two suites already counted as operations; only its
		// latency is new.
		l.rec.lat[opPair] = append(l.rec.lat[opPair], float64(pair))
		l.rec.passOp(pair)
	}
	l.rec.endPass()
	first := l.rec.passes == 1
	var states []string
	for _, c := range clusters {
		if err := l.validate(c); err != nil {
			return err
		}
		if first { // as on the ingest workloads: hashing every pass costs more than it tells
			state, err := fingerprint(c, false)
			if err != nil {
				return err
			}
			states = append(states, state)
		}
	}
	if first {
		l.rec.fingerprint = strings.Join(states, " ")
	}
	return nil
}

// --- elastic_cycle -----------------------------------------------------------

// elasticWorkload is the paper's lifecycle over TCP at replication 2: one
// MODIS run and one AIS run, each from two nodes growing by two at
// capacity up to eight, every cycle reorganising if due, ingesting and
// querying, with a kill drill at mid-run and at the end.
//
// As on query_local, what the AIS run costs follows the seed's port layout
// by a tenth. A pass has room for one AIS run, so successive passes rotate
// over several AIS datasets made from the one seed (the recorder's
// variants) and the metrics average over them.
type elasticWorkload struct {
	seed int64
	sz   sizes

	modisRun elasticRun
	ais      []elasticRun // one per AIS dataset
	cost     genCost
}

// elasticRun is one generator's input with the outcome every measured
// lifecycle of it must reproduce: the same script in process at
// parallelism 1.
type elasticRun struct {
	in  *input
	ref elasticOutcome
}

// elasticMode selects how a lifecycle runs.
type elasticMode struct {
	wire        bool
	parallelism int
	drills      bool
}

// elasticOutcome is what one generator's lifecycle produced.
type elasticOutcome struct {
	suites      []suiteAnswers // per cycle, healthy
	state       string         // fingerprint, replicas included
	nodes       int
	nodeSeconds float64 // Eq 1 summed over the cycles, simulated
	rsd         float64
}

func (w *elasticWorkload) setup() error {
	w.cost, w.ais = genCost{}, nil
	quiet := &lane{rec: newRecorder()}
	in, err := modisInput(w.seed, w.sz.modisCycles, &w.cost)
	if err != nil {
		return err
	}
	ref, err := w.reference(quiet, in, true)
	if err != nil {
		return err
	}
	w.modisRun = elasticRun{in, ref}
	for i := 0; i < w.sz.elasticAisSets; i++ {
		in, err := aisInput(subSeed(w.seed, i), w.sz, &w.cost)
		if err != nil {
			return err
		}
		// One AIS dataset holds the hand-driven cycle to the engine's; the
		// others run the same code and skip that check to keep set-up short.
		ref, err := w.reference(quiet, in, i == 0)
		if err != nil {
			return err
		}
		w.ais = append(w.ais, elasticRun{in, ref})
	}
	if quiet.rec.failed > 0 {
		return fmt.Errorf("reference run failed its own checks: %v", quiet.rec.failures)
	}
	return nil
}

// reference computes what every measured lifecycle of the input must
// reproduce: the same script, drills included, in process at parallelism
// 1. With checkEngine it first holds the hand-driven cycle to the
// engine's: without drills it must end where core.Engine.Run ends on the
// same generator.
func (w *elasticWorkload) reference(quiet *lane, in *input, checkEngine bool) (elasticOutcome, error) {
	if checkEngine {
		plain, err := w.lifecycle(quiet, in, elasticMode{parallelism: 1})
		if err != nil {
			return plain, fmt.Errorf("%s reference: %w", in.gen.Name(), err)
		}
		eng, err := w.engine(in)
		if err != nil {
			return eng, fmt.Errorf("%s engine reference: %w", in.gen.Name(), err)
		}
		if plain.state != eng.state || plain.nodes != eng.nodes || plain.nodeSeconds != eng.nodeSeconds {
			return plain, fmt.Errorf("%s: hand-driven cycle (state %.12s nodes %d node-seconds %v) diverges from core.Engine.Run (state %.12s nodes %d node-seconds %v)",
				in.gen.Name(), plain.state, plain.nodes, plain.nodeSeconds, eng.state, eng.nodes, eng.nodeSeconds)
		}
	}
	ref, err := w.lifecycle(quiet, in, elasticMode{parallelism: 1, drills: true})
	if err != nil {
		return ref, fmt.Errorf("%s drill reference: %w", in.gen.Name(), err)
	}
	return ref, nil
}

func (w *elasticWorkload) inputs() (genCost, int64, int) {
	m, a := w.modisRun.in, w.ais[0].in
	return w.cost, m.total + a.total, m.chunks + a.chunks
}
func (w *elasticWorkload) modis() *input { return w.modisRun.in }

func (w *elasticWorkload) capacity(in *input) int64 { return in.total/elasticCapacityDiv + 1 }

// engine runs the generator through core.Engine with the workload's
// configuration.
func (w *elasticWorkload) engine(in *input) (elasticOutcome, error) {
	e, err := core.NewEngine(in.gen, core.Config{
		PartitionerKind:   partition.KindKdTree,
		InitialNodes:      elasticInitial,
		NodeCapacity:      w.capacity(in),
		FixedStep:         elasticStep,
		MaxNodes:          elasticMaxNodes,
		RunQueries:        true,
		Parallelism:       1,
		ReplicationFactor: 2,
	})
	if err != nil {
		return elasticOutcome{}, err
	}
	defer e.Close()
	stats, err := e.Run()
	if err != nil {
		return elasticOutcome{}, err
	}
	out := elasticOutcome{nodes: e.Cluster().NumNodes(), nodeSeconds: core.TotalNodeSeconds(stats)}
	out.state, err = fingerprint(e.Cluster(), true)
	return out, err
}

func (w *elasticWorkload) pass(l *lane) error {
	variant := l.rec.passes % len(w.ais)
	l.rec.beginPass(variant)
	var nodeSeconds float64
	var got elasticOutcome
	for _, run := range []elasticRun{w.modisRun, w.ais[variant]} {
		in, ref := run.in, run.ref
		var err error
		if got, err = w.lifecycle(l, in, elasticMode{wire: true, drills: true}); err != nil {
			return fmt.Errorf("%s: %w", in.gen.Name(), err)
		}
		l.rec.check(got.state == ref.state && got.nodes == ref.nodes && got.nodeSeconds == ref.nodeSeconds && got.rsd == ref.rsd,
			"%s ended at state %.12s nodes %d node-seconds %v rsd %v, the in-process reference at state %.12s nodes %d node-seconds %v rsd %v",
			in.gen.Name(), got.state, got.nodes, got.nodeSeconds, got.rsd, ref.state, ref.nodes, ref.nodeSeconds, ref.rsd)
		for cycle := range got.suites {
			msg, ok := sameAnswers(ref.suites[cycle], got.suites[cycle], false)
			l.rec.check(ok, "%s cycle %d suite: %s", in.gen.Name(), cycle, msg)
		}
		nodeSeconds += got.nodeSeconds
	}
	l.rec.endPass()
	if variant == 0 {
		// The exact facts of a run are those of its first dataset, the one
		// made from --seed itself.
		l.rec.nodeSeconds, l.rec.rsd, l.rec.fingerprint = nodeSeconds, got.rsd, got.state
	}
	return nil
}

// lifecycle drives one generator through its cycles by hand, the way
// core.Engine.RunCycle does, with the kill drills added when asked.
func (w *elasticWorkload) lifecycle(l *lane, in *input, mode elasticMode) (elasticOutcome, error) {
	var out elasticOutcome
	var c *cluster.Cluster
	var err error
	l.rec.unmeasured(func() {
		c, err = l.newCluster(clusterCfg{
			nodes:       elasticInitial,
			replication: 2,
			capacity:    w.capacity(in),
			parallelism: mode.parallelism,
			wire:        mode.wire,
		}, in.gen)
	})
	if err != nil {
		return out, err
	}
	defer c.Close()

	last := len(in.batches) - 1
	for cycle, batch := range in.batches {
		root := l.tr.root("driver.cycle")
		t0 := time.Now()

		// Scale out first if the incoming insert would exceed capacity.
		var simReorg cluster.Duration
		k := 0
		if demand := c.TotalBytes() + in.bytes[cycle]; demand > c.Capacity() {
			k = min(elasticStep, elasticMaxNodes-c.NumNodes())
		}
		if k > 0 {
			if simReorg, err = l.scaleOut(c, k); err != nil {
				return out, fmt.Errorf("cycle %d scale-out: %w", cycle, err)
			}
		}
		nodes := c.NumNodes()

		dIngest, simInsert, err := l.ingest(c, batch)
		if err != nil {
			return out, fmt.Errorf("cycle %d ingest: %w", cycle, err)
		}
		l.rec.op(opIngest, dIngest)
		l.rec.work(in.bytes[cycle], dIngest)
		l.rec.payload += in.bytes[cycle]

		id := l.tr.push("driver.suite")
		healthy, _, err := l.suite(c, in, cycle, opSuite)
		l.tr.pop(id)
		if err != nil {
			return out, err
		}
		d := time.Since(t0)
		l.tr.pop(root)
		l.rec.op(opCycle, d)
		l.rec.passOp(d)
		out.suites = append(out.suites, healthy)
		out.nodeSeconds += float64(nodes) * (simInsert + simReorg + healthy.sim).Seconds()

		if mode.drills && (cycle == last/2 || cycle == last) {
			if err := l.drill(c, in, cycle, healthy); err != nil {
				return out, fmt.Errorf("cycle %d drill: %w", cycle, err)
			}
		}
	}
	out.nodes, out.rsd = c.NumNodes(), c.RSD()
	l.rec.unmeasured(func() {
		if err = l.validate(c); err == nil {
			out.state, err = fingerprint(c, true)
		}
	})
	return out, err
}

// scaleOut plans and executes a k-node expansion under the lane's open
// span and returns the simulated reorganisation time.
func (l *lane) scaleOut(c *cluster.Cluster, k int) (cluster.Duration, error) {
	t0 := time.Now()
	id := l.tr.push("cluster.plan_scaleout")
	plan, err := c.PlanScaleOut(k)
	l.tr.pop(id)
	if err != nil {
		return 0, err
	}
	id = l.tr.push("cluster.execute_rebalance")
	sim, err := c.ExecuteRebalance(plan)
	l.tr.pop(id)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	l.rec.op(opReorg, d)
	l.rec.work(plan.Bytes(), d)
	res := plan.Result()
	l.rec.scaleOuts++
	l.rec.moved += res.MovedBytes
	l.rec.movedChunks += int64(res.Moves)
	l.rec.frameBytes += res.FrameBytes
	l.rec.simReorg += res.PredictedDuration.Seconds()
	l.rec.wallReorg += res.MeasuredDuration.Seconds()
	if res.MeasuredWireBytes != res.PredictedWireBytes {
		l.rec.wirePredEqMeas = false
	}
	return sim, nil
}

// drill kills the first non-coordinator node that owns chunks, runs the
// suite degraded, recovers onto the survivors and readmits the node. The
// recovery time excludes the degraded suite.
func (l *lane) drill(c *cluster.Cluster, in *input, cycle int, healthy suiteAnswers) error {
	victim := partition.NodeID(-1)
	for _, id := range c.Nodes() {
		if id != c.Coordinator() && len(c.NodeChunks(id)) > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("no non-coordinator node owns chunks")
	}
	root := l.tr.root("driver.drill")
	err := l.failAndRecover(c, in, cycle, victim, healthy)
	l.tr.pop(root)
	if err != nil {
		return err
	}
	l.rec.unmeasured(func() { err = l.validate(c) })
	return err
}

func (l *lane) failAndRecover(c *cluster.Cluster, in *input, cycle int, victim partition.NodeID, healthy suiteAnswers) error {
	var recover time.Duration
	step := func(name string, f func() error) error {
		id := l.tr.push(name)
		d, err := stopwatch(f)
		l.tr.pop(id)
		recover += d
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := step("cluster.fail_node", func() error { return c.FailNode(victim) }); err != nil {
		return err
	}

	id := l.tr.push("driver.degraded_suite")
	degraded, dSuite, err := l.suite(c, in, cycle, opDegraded)
	l.tr.pop(id)
	if err != nil {
		return err
	}
	msg, ok := sameAnswers(healthy, degraded, true)
	l.rec.check(ok, "%s cycle %d degraded suite: %s", in.gen.Name(), cycle, msg)

	var plan *cluster.RebalancePlan
	if err := step("cluster.plan_recover", func() (err error) { plan, err = c.PlanRecover(victim); return }); err != nil {
		return err
	}
	if lost := plan.Unrecoverable(); len(lost) > 0 {
		plan.Discard()
		return fmt.Errorf("%d chunk(s) unrecoverable at replication 2, first %s", len(lost), lost[0])
	}
	if err := step("cluster.execute_recover", func() error { _, err := c.ExecuteRebalance(plan); return err }); err != nil {
		return err
	}
	if err := step("cluster.recover_node", func() error { _, err := c.RecoverNode(victim); return err }); err != nil {
		return err
	}
	l.rec.op(opRecover, recover)
	l.rec.passOp(recover)
	l.rec.passOp(dSuite)
	return nil
}
