package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// record is the full account of one invocation: where it ran, what it was
// asked to do, and for every workload and metric the value of each run
// with their median and quartiles.
type record struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Runs       int     `json:"runs"`

	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Passes    []int                    `json:"passes"` // per run
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]*metricRecord `json:"metrics"`
}

// metricRecord is one metric over the runs of a workload: Value is the
// median of Runs, Q1 and Q3 their quartiles, N their number.
type metricRecord struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	N     int       `json:"n"`
	Runs  []float64 `json:"runs"`
}

func newRecord(opt options, runs int) *record {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &record{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		Runs:       runs,
		Workloads:  make(map[string]*workloadRecord),
	}
}

func (r *record) add(res *result) {
	w := r.Workloads[res.Workload]
	if w == nil {
		w = &workloadRecord{Metrics: make(map[string]*metricRecord)}
		r.Workloads[res.Workload] = w
	}
	w.Passes = append(w.Passes, res.Passes)
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	for name, m := range res.Metrics {
		mr := w.Metrics[name]
		if mr == nil {
			mr = &metricRecord{Unit: m.Unit}
			w.Metrics[name] = mr
		}
		mr.Runs = append(mr.Runs, m.Value)
		s := samples(mr.Runs)
		mr.Value, mr.Q1, mr.Q3, mr.N = s.median(), s.quantile(0.25), s.quantile(0.75), len(s)
	}
}

func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult lists every metric of a run by name with its unit.
func printResult(w io.Writer, res *result, opt options) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %t  passes %d  attempted %d  failed %d  correct %t\n",
		res.Workload, opt.seed, opt.trace, res.Passes, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if len(res.Spans) > 0 {
		fmt.Fprintf(w, "  where the traced operations' wall time went:\n  %-28s %14s %16s %10s\n", "span", "calls/pass", "busy ms/pass", "self")
		for _, row := range res.Spans {
			fmt.Fprintf(w, "  %-28s %14.1f %16.3f %9.1f%%\n", row.Name, row.Calls, row.BusyMs, row.SelfFrac*100)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  trace written to %s\n", res.TraceFile)
	}
}
