package main

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/array"
	"repro/internal/transport"
)

// TestDeliverIgnoresDeclaredCount pins that a served node sizes nothing
// from the chunk count a push declares: a batch that claims 2^31-1 chunks
// and is cut at the first allocates almost nothing and commits nothing.
func TestDeliverIgnoresDeclaredCount(t *testing.T) {
	n := newStoreNode(1, nil)
	cut := errors.New("stream cut")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := n.Deliver(2, transport.KindIngest, math.MaxInt32, func() (*array.Chunk, error) { return nil, cut })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, cut) {
		t.Fatalf("Deliver returned %v, want the stream error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a batch declaring 2^31-1 chunks allocated %d bytes, want under 1 MiB", grew)
	}
	if len(n.chunks) != 0 {
		t.Fatalf("node holds %d chunks after a cut batch", len(n.chunks))
	}
}
