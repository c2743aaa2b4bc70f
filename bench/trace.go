package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. IDs are 1-based indexes
// into the tracer's span slice; Parent 0 marks the root of an operation.
// Every span of one operation (one ingest batch, one suite, one cycle, one
// drill) shares its Op number.
type span struct {
	Name       string
	Parent     int32
	Op         int32
	Start, End int64 // ns since the tracer started
}

// tracer records spans in memory. The driver's single client lane opens
// and closes spans with push/pop, which also maintain "the span now open
// on the lane"; decorators running on other goroutines (transport pushes,
// node handlers, query workers' fetches) attach to that span, or to the
// span begin returned, with begin/end.
//
// A nil *tracer is the untraced run: every method is a no-op, so the same
// workload code serves both runs.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	cur atomic.Int32 // span open on the driver lane
	op  int32        // operation counter (driver lane only)
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its ID. Without a parent
// there is no operation in progress — the caller is set-up or verification
// — and nothing is recorded.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || parent == 0 {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	op := t.spans[parent-1].Op
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	d := end - s.Start
	t.mu.Unlock()
	return time.Duration(d)
}

// current returns the span open on the driver lane.
func (t *tracer) current() int32 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}

// root opens the root span of a new operation on the driver lane.
func (t *tracer) root(name string) int32 {
	if t == nil {
		return 0
	}
	t.op++
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Start: start})
	id := int32(len(t.spans))
	t.mu.Unlock()
	t.cur.Store(id)
	return id
}

// push opens a span under the lane's current span and makes it current.
func (t *tracer) push(name string) int32 {
	if t == nil {
		return 0
	}
	id := t.begin(name, t.cur.Load())
	t.cur.Store(id)
	return id
}

// pop closes a span opened by push or root and makes its parent current.
func (t *tracer) pop(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	d, parent := end-s.Start, s.Parent
	t.mu.Unlock()
	t.cur.Store(parent)
	return time.Duration(d)
}

// snapshot returns the spans recorded so far. Call it when no operation
// is in flight.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf names the layer a span belongs to: the part of its name before
// the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes splits every operation's wall time among its spans. At each
// instant of a root span the time goes to the deepest span open at that
// instant; when several are open side by side (parallel pushes, query
// workers fetching) the instant is shared equally among them. Each
// operation's shares therefore sum to its root span exactly, which is what
// lets the per-layer table read as "where the wall time went" even though
// layers overlap.
//
// self[i] is the share of spans[i] in nanoseconds.
func selfTimes(spans []span) (self []float64) {
	self = make([]float64, len(spans))
	byOp := make(map[int32][]int32)
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], int32(i))
	}
	type event struct {
		at    int64
		start bool
		idx   int32
	}
	var events []event
	openKids := make([]int32, len(spans))
	var leaves []int32
	for _, idxs := range byOp {
		events = events[:0]
		for _, i := range idxs {
			s := spans[i]
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
		// At one instant: starts before ends (so an empty span opens before
		// it closes), parents open before children, children close before
		// parents. IDs grow in creation order, so a parent's is the lower.
		sort.Slice(events, func(a, b int) bool {
			ea, eb := events[a], events[b]
			if ea.at != eb.at {
				return ea.at < eb.at
			}
			if ea.start != eb.start {
				return ea.start
			}
			if ea.start {
				return ea.idx < eb.idx
			}
			return ea.idx > eb.idx
		})
		leaves = leaves[:0]
		var last int64
		for _, e := range events {
			if n := len(leaves); n > 0 && e.at > last {
				share := float64(e.at-last) / float64(n)
				for _, l := range leaves {
					self[l] += share
				}
			}
			last = e.at
			parent := spans[e.idx].Parent - 1
			if e.start {
				if parent >= 0 {
					if openKids[parent] == 0 {
						leaves = removeLeaf(leaves, parent)
					}
					openKids[parent]++
				}
				leaves = append(leaves, e.idx)
			} else {
				leaves = removeLeaf(leaves, e.idx)
				if parent >= 0 {
					openKids[parent]--
					if openKids[parent] == 0 {
						leaves = append(leaves, parent)
					}
				}
			}
		}
	}
	return self
}

func removeLeaf(leaves []int32, idx int32) []int32 {
	for i, l := range leaves {
		if l == idx {
			leaves[i] = leaves[len(leaves)-1]
			return leaves[:len(leaves)-1]
		}
	}
	return leaves
}

// maxTraceFileSpans bounds the trace file; self times are still computed
// over every span recorded.
const maxTraceFileSpans = 200000

// writeTrace writes the spans as one JSON document.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := len(spans)
	if n > maxTraceFileSpans {
		// An operation's spans are contiguous (one driver lane), so cutting
		// just before a root keeps every written operation whole.
		for n = maxTraceFileSpans; n > 0 && spans[n].Parent != 0; n-- {
		}
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"recorded\":%d,\"written\":%d,\"unit\":\"ns\",\"spans\":[\n", workload, len(spans), n)
	for i, s := range spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start\":%d,\"end\":%d}%s\n",
			i+1, s.Parent, s.Op, s.Name, s.Start, s.End, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
