package transport

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/partition"
)

// Loopback is the in-process backend and the cluster's default: delivery
// is a direct handler call and chunks cross as pointers, so a push costs
// exactly what the handler's store writes cost — no encode, no copy. Wrap
// it in a FaultTransport to fault-inject the in-process cluster.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[partition.NodeID]Handler

	pushes, pushedBytes, fetches, fetchBytes, announces atomic.Int64
}

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback {
	return &Loopback{handlers: make(map[partition.NodeID]Handler)}
}

// Serve implements Transport.
func (l *Loopback) Serve(id partition.NodeID, h Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.handlers[id]; dup {
		return fmt.Errorf("transport: node %d already served", id)
	}
	l.handlers[id] = h
	return nil
}

func (l *Loopback) handler(id partition.NodeID) (Handler, error) {
	l.mu.RLock()
	h, ok := l.handlers[id]
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: node %d is not served", id)
	}
	return h, nil
}

// PushChunks implements Transport: a direct Deliver call, chunks by
// reference. The reported wire bytes are the payload sizes — the quantity
// the cost model prices — since nothing is framed.
func (l *Loopback) PushChunks(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error) {
	h, err := l.handler(to)
	if err != nil {
		return 0, err
	}
	i := 0
	next := func() (*array.Chunk, error) {
		if i == len(chunks) {
			return nil, io.EOF
		}
		ch := chunks[i]
		i++
		return ch, nil
	}
	if err := h.Deliver(from, kind, len(chunks), next); err != nil {
		return 0, err
	}
	var bytes int64
	for _, ch := range chunks {
		bytes += ch.SizeBytes()
	}
	l.pushes.Add(1)
	l.pushedBytes.Add(bytes)
	return bytes, nil
}

// pushTruncated delivers a deliberately torn batch: the first len-1 chunks
// arrive, then the stream "corrupts". The FaultTransport partial-write
// knob uses it to exercise the receiver's atomic unwind and the sender's
// retry without a socket to cut.
func (l *Loopback) pushTruncated(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error) {
	h, err := l.handler(to)
	if err != nil {
		return 0, err
	}
	i := 0
	next := func() (*array.Chunk, error) {
		if i >= len(chunks)-1 {
			return nil, fmt.Errorf("%w: %w: frame %d truncated", ErrInjected, ErrCorruptStream, i)
		}
		ch := chunks[i]
		i++
		return ch, nil
	}
	err = h.Deliver(from, kind, len(chunks), next)
	if err == nil {
		err = fmt.Errorf("transport: handler accepted a truncated batch")
	}
	return 0, markTransient(err)
}

// FetchChunk implements Transport: a direct Fetch call returning the
// resident pointer.
func (l *Loopback) FetchChunk(from, to partition.NodeID, ref array.ChunkRef) (*array.Chunk, int64, error) {
	h, err := l.handler(to)
	if err != nil {
		return nil, 0, err
	}
	ch, err := h.Fetch(ref)
	if err != nil {
		return nil, 0, err
	}
	l.fetches.Add(1)
	l.fetchBytes.Add(ch.SizeBytes())
	return ch, ch.SizeBytes(), nil
}

// Announce implements Transport.
func (l *Loopback) Announce(from, to partition.NodeID, a Announcement) error {
	h, err := l.handler(to)
	if err != nil {
		return err
	}
	if err := h.Announce(from, a); err != nil {
		return err
	}
	l.announces.Add(1)
	return nil
}

// Remote implements Transport: loopback payloads never leave the address
// space.
func (l *Loopback) Remote() bool { return false }

// Addr implements Transport: in-process endpoints have no address.
func (l *Loopback) Addr(partition.NodeID) string { return "" }

// Stats implements Transport.
func (l *Loopback) Stats() Stats {
	return Stats{
		Pushes:      l.pushes.Load(),
		PushedBytes: l.pushedBytes.Load(),
		Fetches:     l.fetches.Load(),
		FetchBytes:  l.fetchBytes.Load(),
		Announces:   l.announces.Load(),
	}
}

// Close implements Transport.
func (l *Loopback) Close() error {
	l.mu.Lock()
	l.handlers = make(map[partition.NodeID]Handler)
	l.mu.Unlock()
	return nil
}
