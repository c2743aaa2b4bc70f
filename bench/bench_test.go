package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is a metric as BENCHMARK.json spells it: end-to-end metrics
// carry a bound, per-layer metrics do not have the key at all.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func specMetrics(defs []metricDef, bounded bool) []specMetric {
	out := make([]specMetric, len(defs))
	for i, d := range defs {
		out[i] = specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounded {
			b := d.Bound
			out[i].Bound = &b
		}
	}
	return out
}

// TestSpecMatchesTables holds BENCHMARK.json and the metric tables
// together: same names, units, directions and bounds, in the same order,
// and the four workloads by name.
func TestSpecMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	want := s
	want.EndToEnd = specMetrics(endToEnd, true)
	want.PerLayer = specMetrics(perLayer, false)
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if *update {
		if err := os.WriteFile(path, wantJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(data, wantJSON) {
		t.Errorf("BENCHMARK.json is out of step with the metric tables in metrics.go; run go test -run TestSpecMatchesTables -update")
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver runs %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the driver", i, w.Name, workloadNames[i])
		}
		if _, ok := opClass[w.Name]; !ok {
			t.Errorf("workload %q has no operation class", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" {
			t.Errorf("metric %q has no unit", m.Name)
		}
	}
}

// TestSmoke runs the four workloads at toy size, untraced and traced, and
// checks what the benchmark promises about its own output: every defined
// metric reported with its unit, outputs correct, spans well nested, self
// times summing to each operation's wall time, and decorators that leave
// the state untouched.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opt := options{seconds: 0.2, sz: toySizes, setups: 1, traceDir: t.TempDir()}

			plain, err := runWorkload(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, plain, endToEnd)
			for _, d := range endToEnd {
				if v := plain.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}

			opt.trace = true
			traced, err := runWorkload(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, perLayer)
			if traced.fingerprint == "" || traced.fingerprint != traced.tracedFpr {
				t.Errorf("traced passes ended at state %q, untraced at %q: decorators are not transparent", traced.tracedFpr, traced.fingerprint)
			}
			if plain.fingerprint != traced.fingerprint {
				t.Errorf("two runs of one seed ended at different states: %q and %q", plain.fingerprint, traced.fingerprint)
			}
			if _, err := os.Stat(traced.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			checkSpans(t, traced.spans)

			wire := name == "ingest_wire" || name == "elastic_cycle"
			for _, m := range []string{"transport.push_calls", "transport.fetch_calls", "transport.announce_calls"} {
				v := traced.Metrics[m].Value
				if !wire && v != 0 {
					t.Errorf("%s = %v on a workload with no transport", m, v)
				}
			}
			if wire && traced.Metrics["transport.push_calls"].Value == 0 {
				t.Errorf("no pushes recorded on a TCP workload")
			}
			var layers float64
			for _, layer := range traceLayers {
				if layer != "driver" {
					layers += traced.Metrics["trace.self_frac."+layer].Value
				}
			}
			// At full size the layers account for 99%; toy operations are so
			// short that the driver's own bookkeeping between calls shows.
			if layers < 0.85 {
				t.Errorf("layers below the driver account for %.3f of the operations' wall time, want >= 0.85", layers)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	if res.Attempted < 1 || res.Passes < 1 {
		t.Errorf("attempted %d operations in %d passes", res.Attempted, res.Passes)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("reported %d metrics, %d are defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not reported", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s reported in %q, defined in %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// checkSpans verifies the trace's structure: every operation has exactly
// one root, every other span lies inside its parent and belongs to its
// parent's operation, and the self times of an operation's spans sum to
// its root span within 1%.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	roots := map[int32]int{}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d %s ends before it starts", i+1, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Op]++
			continue
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op {
			t.Errorf("span %d %s is in operation %d, its parent %s in %d", i+1, s.Name, s.Op, p.Name, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] is not inside its parent %s [%d,%d]", i+1, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	self := selfTimes(spans)
	sum := map[int32]float64{}
	root := map[int32]float64{}
	for i, s := range spans {
		sum[s.Op] += self[i]
		if s.Parent == 0 {
			root[s.Op] = float64(s.End - s.Start)
		}
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("operation %d has %d root spans", op, n)
		}
		if math.Abs(sum[op]-root[op]) > 0.01*root[op] {
			t.Errorf("operation %d: self times sum to %.0f ns, its root span lasts %.0f ns", op, sum[op], root[op])
		}
	}
}

// TestTracedSuiteMatchesSuite holds the traced run's direct operator calls
// to the suite functions on more inputs than the smoke test sees: the same
// answers and, bit for bit, the same simulated time. elastic_cycle compares
// node-seconds exactly, so a traced sum that rounds differently fails the
// benchmark on the seeds where the difference survives (--seed 7 did).
func TestTracedSuiteMatchesSuite(t *testing.T) {
	sz := toySizes
	sz.modisCycles, sz.aisCycles = 6, 6
	w := &queryWorkload{sz: sz}
	plain := &lane{rec: newRecorder()}
	traced := &lane{tr: newTracer(), rec: newRecorder()}
	for seed := int64(1); seed <= 6; seed++ {
		var cost genCost
		modis, err := modisInput(seed, sz.modisCycles, &cost)
		if err != nil {
			t.Fatal(err)
		}
		ais, err := aisInput(seed, sz, &cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*input{modis, ais} {
			c, err := w.preload(plain, in, 1)
			if err != nil {
				t.Fatal(err)
			}
			for cycle := range in.batches {
				want, _, err := plain.runSuite(c, in, cycle)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := traced.runSuite(c, in, cycle)
				if err != nil {
					t.Fatal(err)
				}
				if msg, ok := sameAnswers(want, got, false); !ok {
					t.Errorf("%s seed %d cycle %d: %s", in.gen.Name(), seed, cycle, msg)
				}
				if got.sim != want.sim {
					t.Errorf("%s seed %d cycle %d: traced suite's simulated time %v, the suite function's %v",
						in.gen.Name(), seed, cycle, float64(got.sim), float64(want.sim))
				}
			}
			c.Close()
		}
	}
}

// TestSelfTimesShareParallelChildren pins the attribution rule on a
// hand-made operation: a parent with two overlapping children.
func TestSelfTimesShareParallelChildren(t *testing.T) {
	spans := []span{
		{Name: "driver.op", Op: 1, Start: 0, End: 100},
		{Name: "transport.push", Parent: 1, Op: 1, Start: 10, End: 70},
		{Name: "transport.push", Parent: 1, Op: 1, Start: 30, End: 90},
		{Name: "cluster.deliver_store", Parent: 2, Op: 1, Start: 40, End: 50},
	}
	// root: [0,10) + [90,100) = 20. First push: [10,30) alone = 20, [30,40)
	// and [50,70) shared = 15. Second push: [30,70) shared = 20 (of which
	// [40,50) with the deliver), [70,90) alone = 20. Deliver: [40,50) shared = 5.
	want := []float64{20, 35, 40, 5}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", i+1, got[i], want[i])
		}
	}
}

// TestCompareVerdicts pins the three verdicts of --compare.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, opMs []float64) string {
		r := newRecord(options{}, len(opMs))
		for _, v := range opMs {
			r.add(&result{Workload: "ingest_local", Attempted: 1, Metrics: map[string]metric{"op_ms_p50": {Value: v, Unit: "ms"}}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", []float64{1.00, 1.01, 1.02})
	for _, tc := range []struct {
		name      string
		runs      []float64
		verdict   string
		regressed bool
	}{
		{"same", []float64{1.02, 1.01, 1.03}, "ok", false},
		{"slower", []float64{1.20, 1.21, 1.22}, "regressed", true},
		{"noisy", []float64{0.90, 1.02, 1.30}, "unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name+".json", tc.runs))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !bytes.Contains(out.Bytes(), []byte(tc.verdict)) {
			t.Errorf("%s: regressed=%t, output %q; want regressed=%t and verdict %s", tc.name, regressed, out.String(), tc.regressed, tc.verdict)
		}
	}
}
