package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The traced run sees the layers below the cluster through the public
// seams the cluster takes as configuration: the partitioner factory and
// the node transport (with the handler each node registers on it). Each decorator forwards every call
// unchanged and records a span, parented on the span open on the driver
// lane, plus the counts spans cannot carry. Calls made while no operation
// is open on the lane (set-up, verification) are forwarded and not recorded.

// tracedPartitioner records placement and table revision.
type tracedPartitioner struct {
	partition.Partitioner
	tr *tracer
	n  *seamCounts
}

func (p *tracedPartitioner) PlaceBatch(infos []array.ChunkInfo, st partition.State) ([]partition.Assignment, error) {
	id := p.tr.begin("partition.place_batch", p.tr.current())
	out, err := p.Partitioner.PlaceBatch(infos, st)
	p.tr.end(id)
	if id != 0 {
		p.n.placed.Add(int64(len(infos)))
	}
	return out, err
}

func (p *tracedPartitioner) AddNodes(newNodes []partition.NodeID, st partition.State) ([]partition.Move, error) {
	id := p.tr.begin("partition.add_nodes", p.tr.current())
	moves, err := p.Partitioner.AddNodes(newNodes, st)
	p.tr.end(id)
	if id != 0 {
		p.n.moves.Add(int64(len(moves)))
	}
	return moves, err
}

// seamCounts are what the decorators count beside their spans: sizes and
// failures, which a span's name and duration cannot carry. Calls and busy
// times are read off the spans themselves.
type seamCounts struct {
	placed, moves          atomic.Int64 // partitioner: chunks placed, moves planned
	pushPayload, pushFrame atomic.Int64 // bytes of successful pushes
	pushFailed             atomic.Int64
}

type pushKey struct {
	from, to partition.NodeID
	kind     transport.BatchKind
	n        int
}

// tracedTransport records every verb and wraps each node's handler so the
// receiving side of a push appears as a child of the push that caused it.
type tracedTransport struct {
	transport.Transport
	tr *tracer
	n  *seamCounts

	mu       sync.Mutex
	inflight map[pushKey][]int32 // open push spans awaiting their Deliver
}

func newTracedTransport(inner transport.Transport, tr *tracer, n *seamCounts) *tracedTransport {
	return &tracedTransport{Transport: inner, tr: tr, n: n, inflight: make(map[pushKey][]int32)}
}

func (t *tracedTransport) Serve(id partition.NodeID, h transport.Handler) error {
	return t.Transport.Serve(id, &tracedHandler{Handler: h, node: id, t: t})
}

func (t *tracedTransport) PushChunks(from, to partition.NodeID, kind transport.BatchKind, chunks []*array.Chunk) (int64, error) {
	key := pushKey{from, to, kind, len(chunks)}
	id := t.tr.begin("transport.push", t.tr.current())
	t.mu.Lock()
	t.inflight[key] = append(t.inflight[key], id)
	t.mu.Unlock()

	frame, err := t.Transport.PushChunks(from, to, kind, chunks)

	t.mu.Lock()
	open := t.inflight[key]
	for i, o := range open {
		if o == id {
			t.inflight[key] = append(open[:i], open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	t.tr.end(id)
	switch {
	case id == 0: // set-up or verification traffic: not counted
	case err != nil:
		t.n.pushFailed.Add(1)
	default:
		t.n.pushFrame.Add(frame)
		t.n.pushPayload.Add(workload.BatchBytes(chunks))
	}
	return frame, err
}

// pushSpan finds the open push a delivery belongs to. Two pushes with one
// key are interchangeable, so the newest serves.
func (t *tracedTransport) pushSpan(key pushKey) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if open := t.inflight[key]; len(open) > 0 {
		return open[len(open)-1]
	}
	return t.tr.current()
}

func (t *tracedTransport) FetchChunk(from, to partition.NodeID, ref array.ChunkRef) (*array.Chunk, int64, error) {
	id := t.tr.begin("transport.fetch", t.tr.current())
	ch, n, err := t.Transport.FetchChunk(from, to, ref)
	t.tr.end(id)
	return ch, n, err
}

func (t *tracedTransport) Announce(from, to partition.NodeID, a transport.Announcement) error {
	id := t.tr.begin("transport.announce", t.tr.current())
	err := t.Transport.Announce(from, to, a)
	t.tr.end(id)
	return err
}

// tracedHandler is the receiving node's side of a push. The time inside
// next() is the transport's (socket read and batch decode); the rest of
// Deliver is the cluster's (store writes).
type tracedHandler struct {
	transport.Handler
	node partition.NodeID
	t    *tracedTransport
}

func (h *tracedHandler) Deliver(from partition.NodeID, kind transport.BatchKind, n int, next func() (*array.Chunk, error)) error {
	tr := h.t.tr
	id := tr.begin("cluster.deliver_store", h.t.pushSpan(pushKey{from, h.node, kind, n}))
	err := h.Handler.Deliver(from, kind, n, func() (*array.Chunk, error) {
		nid := tr.begin("transport.deliver_decode", id)
		ch, err := next()
		tr.end(nid)
		return ch, err
	})
	tr.end(id)
	return err
}
