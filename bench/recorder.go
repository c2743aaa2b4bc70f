package main

import (
	"fmt"
	"time"
)

// Operation classes: each timed operation adds its wall time to one.
const (
	opIngest   = "ingest"   // PlanInsert + ExecutePlan of one batch
	opSuite    = "suite"    // one six-query suite
	opCycle    = "cycle"    // reorganise (if due) + ingest + suite
	opReorg    = "reorg"    // PlanScaleOut + ExecuteRebalance
	opRecover  = "recover"  // FailNode … RecoverNode, degraded suite excluded
	opDegraded = "degraded" // one suite with a node down
	opPair     = "pair"     // query_local: MODIS suite then AIS suite
)

// recorder collects what one run's passes measured. The traced and the
// untraced passes of a --trace 1 run report to separate recorders.
type recorder struct {
	lat map[string]samples // wall ns per operation, by class

	passes int
	// A workload whose passes rotate over several input datasets numbers
	// them as variants; passes of one variant run one script on one input.
	passOps   map[int][][]float64 // per variant, per pass: wall ns of each operation, in script order
	passAlloc map[int]samples     // per variant: bytes allocated inside operations, per pass
	mallocs   float64             // mallocs inside operations, all passes
	peakHeap  uint64

	// workRates holds, for every operation on the workload's data path,
	// the payload it carried over the time it took, in MB/s.
	workRates samples

	payload                 int64 // ingested payload bytes
	moved, movedChunks      int64 // scale-out payload and chunk moves
	frameBytes              int64 // transport-reported bytes of scale-outs
	simReorg, wallReorg     float64
	wirePredEqMeas          bool
	scanned, shuffled       int64 // summed over suite results
	suites, scaleOuts       int
	validateNs, suiteAllocB samples
	nodeSeconds, rsd        float64 // of a pass of variant 0; identical on each
	fingerprint             string

	attempted, failed int
	failures          []string

	seams seamCounts

	// memory accounting of the pass in progress
	variant            int
	passStart          memSnap
	curOps             []float64
	exclAlloc, exclMal uint64
}

func newRecorder() *recorder {
	return &recorder{
		lat:            make(map[string]samples),
		passOps:        make(map[int][][]float64),
		passAlloc:      make(map[int]samples),
		wirePredEqMeas: true,
	}
}

// op records one completed operation.
func (r *recorder) op(class string, d time.Duration) {
	r.lat[class] = append(r.lat[class], float64(d))
	r.attempted++
}

// passOp adds one operation to the pass in progress. Every pass of a
// workload runs the same script, so the k-th call of every pass is the
// same operation on the same input.
func (r *recorder) passOp(d time.Duration) { r.curOps = append(r.curOps, float64(d)) }

// work records the rate of one operation on the workload's data path.
func (r *recorder) work(bytes int64, d time.Duration) {
	r.workRates = append(r.workRates, ratio(float64(bytes)/mb, d.Seconds()))
}

// typicalPassNs is the pass made of undisturbed operations: each
// operation's lower quartile of wall time across the passes, summed over
// the script, and averaged over the variants.
//
// The lower quartile, not the median, because the TCP transport stalls:
// now and then a receiver waits ~200 ms (or ~400 ms) on its socket in the
// middle of a batch, which looks like the sender sitting out a zero-window
// probe timer after the receiver fell behind. On some inputs the scale-out after
// a drill stalls in about half the passes, so that operation's median
// flips between 45 and 245 ms from run to run and a plain per-pass total
// moves by a tenth. The lower quartile stays on the undisturbed side as
// long as under three quarters of the passes stall; a change that slows an
// operation in every pass still shows in full, and the stalls themselves
// are reported in the tails (driver.*_p99).
func (r *recorder) typicalPassNs() float64 {
	var sum float64
	for _, passes := range r.passOps {
		for k := range passes[0] {
			at := make(samples, 0, len(passes))
			for _, ops := range passes {
				if k < len(ops) {
					at = append(at, ops[k])
				}
			}
			sum += at.quantile(0.25)
		}
	}
	return ratio(sum, float64(len(r.passOps)))
}

// typicalAllocBytes is the median over passes of the bytes allocated
// inside a pass's operations, averaged over the variants.
func (r *recorder) typicalAllocBytes() float64 {
	var sum float64
	for _, a := range r.passAlloc {
		sum += a.median()
	}
	return ratio(sum, float64(len(r.passAlloc)))
}

// check counts one verification and records its failure.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) beginPass(variant int) {
	r.variant, r.curOps, r.exclAlloc, r.exclMal = variant, nil, 0, 0
	r.passStart = readMem()
}

// unmeasured runs verification inside a pass without charging its
// allocations to the pass.
func (r *recorder) unmeasured(f func()) {
	before := readMem()
	f()
	after := readMem()
	r.exclAlloc += after.alloc - before.alloc
	r.exclMal += after.mallocs - before.mallocs
}

func (r *recorder) endPass() {
	end := readMem()
	r.passes++
	r.passOps[r.variant] = append(r.passOps[r.variant], r.curOps)
	r.passAlloc[r.variant] = append(r.passAlloc[r.variant], float64(end.alloc-r.passStart.alloc-r.exclAlloc))
	r.mallocs += float64(end.mallocs - r.passStart.mallocs - r.exclMal)
	if end.heapInuse > r.peakHeap {
		r.peakHeap = end.heapInuse
	}
}
