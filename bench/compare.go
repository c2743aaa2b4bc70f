package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles prints one row per (workload, metric) present in both
// records: both medians, the change, and for the end-to-end metrics the
// bound and a verdict —
//
//	ok          no worse than the bound allows
//	regressed   worse by more than the bound
//	unresolved  within the bound, but one side's runs spread wider than
//	            the bound, so "unchanged" is not shown
//
// Per-layer metrics have no bound and get no verdict. It reports true when
// any metric regressed or a workload's failures rose.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readRecord(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return false, err
	}
	bounds := make(map[string]metricDef)
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	fmt.Fprintf(w, "old %s (%s, %d runs, GOMAXPROCS %d)\nnew %s (%s, %d runs, GOMAXPROCS %d)\n",
		oldPath, old.Commit, old.Runs, old.GOMAXPROCS, newPath, cur.Commit, cur.Runs, cur.GOMAXPROCS)
	fmt.Fprintf(w, "%-14s %-40s %14s %14s %9s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, name := range workloadNames {
		ow, nw := old.Workloads[name], cur.Workloads[name]
		if ow == nil || nw == nil {
			continue
		}
		if nw.Failed > ow.Failed {
			regressed = true
			fmt.Fprintf(w, "%-14s failures rose from %d of %d to %d of %d: regressed\n", name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		}
		var metrics []string
		for m := range nw.Metrics {
			if ow.Metrics[m] != nil {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			o, n := ow.Metrics[m], nw.Metrics[m]
			change := ratio(n.Value-o.Value, o.Value)
			bound, verdict := "", ""
			if d, gated := bounds[m]; gated {
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				spread := max(ratio(o.Q3-o.Q1, o.Value), ratio(n.Q3-n.Q1, n.Value))
				switch {
				case worse > d.Bound:
					verdict = "regressed"
					regressed = true
				case spread > d.Bound:
					verdict = "unresolved"
				default:
					verdict = "ok"
				}
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "%-14s %-40s %14.6g %14.6g %+8.1f%% %6s  %s\n", name, m, o.Value, n.Value, change*100, bound, verdict)
		}
	}
	return regressed, nil
}
