package main

import (
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/query"
)

// opNames are the six benchmark queries of each suite, in suite order.
var opNames = []string{"selection", "sort", "join", "statistics", "modeling", "projection"}

// queryOp is one suite query as a direct operator call.
type queryOp struct {
	name string
	run  func() (query.Result, error)
}

// The traced run times each query separately, which the suite functions do
// not allow from outside, so modisOps and aisOps repeat the arguments
// query.MODISSuite and query.AISSuite pass to the operators. Every answer
// they produce is checked against the reference the real suite functions
// computed in set-up, so a suite that changes its arguments fails the
// benchmark's correctness gate instead of silently measuring something
// else.

func modisOps(c *cluster.Cluster, cycle int) ([]queryOp, error) {
	s, ok := c.Schema("Band1")
	if !ok {
		return nil, fmt.Errorf("array Band1 not defined")
	}
	day := s.Dims[0].ChunkInterval
	maxTime := int64(cycle+1)*day - 1

	sel := query.FullRegion(s, maxTime)
	sel.Hi[1] = s.Dims[1].Start + s.Dims[1].Extent()/4 - 1
	sel.Hi[2] = s.Dims[2].Start + s.Dims[2].Extent()/4 - 1

	timeLo := int64(0)
	if cycle >= 2 {
		timeLo = int64(cycle-2) * day
	}
	north := query.FullRegion(s, maxTime)
	north.Lo[0] = timeLo
	north.Lo[2] = 66
	south := query.FullRegion(s, maxTime)
	south.Lo[0] = timeLo
	south.Hi[2] = -67

	amazon := query.FullRegion(s, maxTime)
	amazon.Lo[1], amazon.Hi[1] = -78, -44
	amazon.Lo[2], amazon.Hi[2] = -20, 6

	return []queryOp{
		{"selection", func() (query.Result, error) {
			return query.SelectRegion(c, "Band1", sel, []string{"radiance"})
		}},
		{"sort", func() (query.Result, error) { return query.Quantile(c, "Band1", "radiance", 0.5, 0.1) }},
		{"join", func() (query.Result, error) {
			return query.JoinBands(c, "Band1", "Band2", "radiance", int64(cycle))
		}},
		{"statistics", func() (query.Result, error) {
			return query.GroupByAggregate(c, query.GroupBySpec{
				Array:      "Band1",
				Regions:    []query.Region{north, south},
				GroupDims:  []int{0},
				GroupScale: []int64{day},
				Attr:       "radiance",
			})
		}},
		{"modeling", func() (query.Result, error) { return query.KMeans(c, "Band1", "radiance", amazon, 4, 4) }},
		{"projection", func() (query.Result, error) {
			return query.WindowAggregate(c, "Band1", "radiance", int64(cycle), 2)
		}},
	}, nil
}

// aisOps needs the cycle's batch to find the densest chunk of the newest
// slab (the suite's port-of-Houston stand-in): the largest chunk, ties
// broken by canonical coordinates, which is the same chunk wherever the
// cluster placed it.
func aisOps(c *cluster.Cluster, cycle int, batch []*array.Chunk) ([]queryOp, error) {
	s, ok := c.Schema("Broadcast")
	if !ok {
		return nil, fmt.Errorf("array Broadcast not defined")
	}
	var port array.ChunkCoord
	var portSize int64 = -1
	for _, ch := range batch {
		size := ch.SizeBytes()
		if size > portSize || (size == portSize && ch.Coords.Less(port)) {
			port, portSize = ch.Coords, size
		}
	}
	if portSize < 0 {
		return nil, fmt.Errorf("AIS cycle %d is empty", cycle)
	}
	maxTime := int64(cycle+1)*s.Dims[0].ChunkInterval - 1
	lo, hi := s.ChunkBounds(port)
	sel := query.FullRegion(s, maxTime)
	sel.Lo[1], sel.Hi[1] = lo[1], hi[1]
	sel.Lo[2], sel.Hi[2] = lo[2], hi[2]

	return []queryOp{
		{"selection", func() (query.Result, error) {
			return query.SelectRegion(c, "Broadcast", sel, []string{"speed", "ship_id"})
		}},
		{"sort", func() (query.Result, error) { return query.DistinctSorted(c, "Broadcast", "ship_id") }},
		{"join", func() (query.Result, error) {
			return query.JoinReplicated(c, "Broadcast", "ship_id", "Vessel", int64(cycle))
		}},
		{"statistics", func() (query.Result, error) {
			return query.GroupByAggregate(c, query.GroupBySpec{
				Array:      "Broadcast",
				GroupDims:  []int{1, 2},
				GroupScale: []int64{2 * s.Dims[1].ChunkInterval, 2 * s.Dims[2].ChunkInterval},
				FilterAttr: "speed",
				FilterMin:  1,
			})
		}},
		{"modeling", func() (query.Result, error) { return query.KNN(c, "Broadcast", int64(cycle), 40, 8) }},
		{"projection", func() (query.Result, error) {
			return query.CollisionProjection(c, "Broadcast", int64(cycle), 15, 1.5)
		}},
	}, nil
}

// suiteAnswers is one suite execution: the six results by query name and
// the suite's simulated latency.
type suiteAnswers struct {
	perQuery map[string]query.Result
	sim      cluster.Duration
}

// runSuite executes the generator's six-query suite as of the given cycle
// and returns its answers and wall time. Untraced it calls the suite
// function; traced it calls the operators one by one under a span each.
func (l *lane) runSuite(c *cluster.Cluster, in *input, cycle int) (suiteAnswers, time.Duration, error) {
	modis := in.gen.Name() == "MODIS"
	if l.tr == nil {
		suite := query.AISSuite
		if modis {
			suite = query.MODISSuite
		}
		t0 := time.Now()
		res, err := suite(c, cycle)
		d := time.Since(t0)
		return suiteAnswers{res.PerQuery, res.Total()}, d, err
	}

	prefix := "query.ais_"
	before := readMem()
	t0 := time.Now()
	var ops []queryOp
	var err error
	if modis {
		prefix = "query.modis_"
		ops, err = modisOps(c, cycle)
	} else {
		ops, err = aisOps(c, cycle, in.batches[cycle])
	}
	if err != nil {
		return suiteAnswers{}, 0, err
	}
	out := suiteAnswers{perQuery: make(map[string]query.Result, len(ops))}
	// The suite functions sum the first three queries' simulated time and
	// the last three's apart (SPJ, Science) and add the halves. Float
	// addition is not associative, and simulated node-seconds are compared
	// bit for bit, so the sum here groups the same way.
	var sim query.SuiteResult
	for i, op := range ops {
		id := l.tr.push(prefix + op.name)
		r, err := op.run()
		l.tr.pop(id)
		if err != nil {
			return out, time.Since(t0), fmt.Errorf("%s%s: %w", prefix, op.name, err)
		}
		out.perQuery[op.name] = r
		if i < len(ops)/2 {
			sim.SPJ += r.Elapsed
		} else {
			sim.Science += r.Elapsed
		}
	}
	out.sim = sim.Total()
	d := time.Since(t0)
	after := readMem()
	l.rec.suiteAllocB = append(l.rec.suiteAllocB, float64(after.alloc-before.alloc))
	return out, d, nil
}

// sameAnswers compares two suite executions on what the repository
// guarantees is identical across schedules and transports: cardinality,
// value and scan volume. With a node down a query may read fewer copies
// of a replicated array, so degraded answers are held to cardinality and
// value only.
func sameAnswers(want, got suiteAnswers, degraded bool) (string, bool) {
	for _, name := range opNames {
		w, okw := want.perQuery[name]
		g, okg := got.perQuery[name]
		if !okw || !okg {
			return fmt.Sprintf("%s: missing result", name), false
		}
		if w.Cells != g.Cells || w.Value != g.Value || (!degraded && w.BytesScanned != g.BytesScanned) {
			return fmt.Sprintf("%s: got cells=%d value=%v scanned=%d, want cells=%d value=%v scanned=%d",
				name, g.Cells, g.Value, g.BytesScanned, w.Cells, w.Value, w.BytesScanned), false
		}
	}
	return "", true
}
