package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
)

// FaultTransport wraps any Transport with programmable network faults —
// the wire-level mirror of the cluster tests' FaultStore: injectable
// latency on every verb, connection drops before delivery (the push never
// reaches the remote handler, so a retry is always safe), and partial
// writes (the stream is cut mid-batch, the receiver decodes a torn frame
// and unwinds, the sender sees a transient failure). Every synthetic
// failure wraps ErrInjected, and every injected failure is transient by
// IsTransient — this is exactly the fault class the cluster's
// TransferRetries/TransferBackoff loop is meant to absorb.
//
// Beyond the one-shot and random knobs, links can be blocked persistently
// and asymmetrically: BlockLink(a, b, mode) cuts a→b while b→a flows, and
// the mode selects which verbs die — LinkAnnounce alone models a lossy
// control path under which data still moves (heartbeats vanish, the node
// looks dead, yet fetches succeed), LinkData alone the inverse, LinkAll a
// full one-way partition. IsolateNode cuts every link touching a node in
// both directions — the standard "kill" a failure-detection drill injects.
//
// All knobs are safe for concurrent use with the transport itself.
type FaultTransport struct {
	inner Transport

	mu        sync.Mutex
	latency   time.Duration
	dropN     int     // drop the next n pushes before delivery
	truncateN int     // cut the next n pushes mid-stream
	dropRate  float64 // probability any push/fetch is dropped
	rng       *rand.Rand
	injected  int
	blocked   map[linkKey]LinkMode          // persistent directed link blocks
	isolated  map[partition.NodeID]LinkMode // nodes cut off in both directions
}

// LinkMode selects which verbs a blocked link refuses.
type LinkMode uint8

const (
	// LinkData blocks chunk pushes and fetches (the data plane).
	LinkData LinkMode = 1 << iota
	// LinkAnnounce blocks heartbeat/holdings announcements (the control
	// plane) while data still flows.
	LinkAnnounce
	// LinkAll blocks every verb on the link.
	LinkAll = LinkData | LinkAnnounce
)

type linkKey struct{ from, to partition.NodeID }

// truncatablePusher is the optional backend hook partial-write injection
// uses; both built-in backends implement it.
type truncatablePusher interface {
	pushTruncated(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error)
}

// NewFaultTransport wraps inner (NewLoopback() when nil) with no faults
// armed.
func NewFaultTransport(inner Transport) *FaultTransport {
	if inner == nil {
		inner = NewLoopback()
	}
	return &FaultTransport{inner: inner}
}

// SetLatency arms a fixed delay injected before every push, fetch and
// announce. Zero disarms.
func (f *FaultTransport) SetLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

// FailNextPushes arms the transport to drop the next n pushes before they
// reach the remote handler.
func (f *FaultTransport) FailNextPushes(n int) {
	f.mu.Lock()
	f.dropN = n
	f.mu.Unlock()
}

// TruncateNextPushes arms the transport to cut the next n pushes
// mid-stream: the receiver observes a torn batch, unwinds, and the sender
// gets a transient failure.
func (f *FaultTransport) TruncateNextPushes(n int) {
	f.mu.Lock()
	f.truncateN = n
	f.mu.Unlock()
}

// SetDropRate arms random connection drops with the given probability,
// deterministic for a given seed. Rate 0 disarms.
func (f *FaultTransport) SetDropRate(rate float64, seed int64) {
	f.mu.Lock()
	f.dropRate = rate
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// BlockLink cuts the directed link from → to for the verbs mode selects,
// until UnblockLink. The reverse direction is untouched, so an asymmetric
// partition (A reaches B, B cannot reach A) is two independent calls.
func (f *FaultTransport) BlockLink(from, to partition.NodeID, mode LinkMode) {
	f.mu.Lock()
	if f.blocked == nil {
		f.blocked = make(map[linkKey]LinkMode)
	}
	f.blocked[linkKey{from, to}] |= mode
	f.mu.Unlock()
}

// UnblockLink restores the directed link from → to.
func (f *FaultTransport) UnblockLink(from, to partition.NodeID) {
	f.mu.Lock()
	delete(f.blocked, linkKey{from, to})
	f.mu.Unlock()
}

// IsolateNode cuts every link touching the node, in both directions, for
// the verbs mode selects — the injected equivalent of pulling its network
// cable. HealNode reverses it.
func (f *FaultTransport) IsolateNode(id partition.NodeID, mode LinkMode) {
	f.mu.Lock()
	if f.isolated == nil {
		f.isolated = make(map[partition.NodeID]LinkMode)
	}
	f.isolated[id] |= mode
	f.mu.Unlock()
}

// HealNode restores every link touching the node: the isolation and any
// directed blocks naming it are lifted.
func (f *FaultTransport) HealNode(id partition.NodeID) {
	f.mu.Lock()
	delete(f.isolated, id)
	for k := range f.blocked {
		if k.from == id || k.to == id {
			delete(f.blocked, k)
		}
	}
	f.mu.Unlock()
}

// linkFault reports whether the directed link is blocked for the verb,
// counting an injected fault when it is.
func (f *FaultTransport) linkFault(from, to partition.NodeID, verb LinkMode) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	cut := f.blocked[linkKey{from, to}]&verb != 0 ||
		f.isolated[from]&verb != 0 || f.isolated[to]&verb != 0
	if cut {
		f.injected++
	}
	return cut
}

// Injected returns how many faults the transport has injected so far.
func (f *FaultTransport) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// pushFault decides the fate of one push: 0 = deliver, 1 = drop,
// 2 = truncate. It also sleeps the armed latency.
func (f *FaultTransport) pushFault() int {
	f.mu.Lock()
	latency := f.latency
	verdict := 0
	if f.dropN > 0 {
		f.dropN--
		verdict = 1
	} else if f.truncateN > 0 {
		f.truncateN--
		verdict = 2
	} else if f.dropRate > 0 && f.rng.Float64() < f.dropRate {
		verdict = 1
	}
	if verdict != 0 {
		f.injected++
	}
	f.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return verdict
}

// flatFault decides drop-or-deliver for fetches and announces.
func (f *FaultTransport) flatFault() bool {
	f.mu.Lock()
	latency := f.latency
	drop := f.dropRate > 0 && f.rng.Float64() < f.dropRate
	if drop {
		f.injected++
	}
	f.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return drop
}

// Serve implements Transport.
func (f *FaultTransport) Serve(id partition.NodeID, h Handler) error { return f.inner.Serve(id, h) }

// PushChunks implements Transport, consulting the armed fault knobs first.
func (f *FaultTransport) PushChunks(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error) {
	if f.linkFault(from, to, LinkData) {
		return 0, markTransient(fmt.Errorf("%w: link %d→%d blocked, push refused", ErrInjected, from, to))
	}
	switch f.pushFault() {
	case 1:
		return 0, markTransient(fmt.Errorf("%w: connection to node %d dropped before push", ErrInjected, to))
	case 2:
		if tp, ok := f.inner.(truncatablePusher); ok {
			return tp.pushTruncated(from, to, kind, chunks)
		}
		return 0, markTransient(fmt.Errorf("%w: push to node %d cut mid-stream", ErrInjected, to))
	}
	return f.inner.PushChunks(from, to, kind, chunks)
}

// FetchChunk implements Transport, consulting the armed fault knobs first.
func (f *FaultTransport) FetchChunk(from, to partition.NodeID, ref array.ChunkRef) (*array.Chunk, int64, error) {
	if f.linkFault(from, to, LinkData) {
		return nil, 0, markTransient(fmt.Errorf("%w: link %d→%d blocked, fetch refused", ErrInjected, from, to))
	}
	if f.flatFault() {
		return nil, 0, markTransient(fmt.Errorf("%w: connection to node %d dropped before fetch", ErrInjected, to))
	}
	return f.inner.FetchChunk(from, to, ref)
}

// Announce implements Transport, consulting the armed fault knobs first.
func (f *FaultTransport) Announce(from, to partition.NodeID, a Announcement) error {
	if f.linkFault(from, to, LinkAnnounce) {
		return markTransient(fmt.Errorf("%w: link %d→%d blocked, announce refused", ErrInjected, from, to))
	}
	if f.flatFault() {
		return markTransient(fmt.Errorf("%w: connection to node %d dropped before announce", ErrInjected, to))
	}
	return f.inner.Announce(from, to, a)
}

// Remote implements Transport.
func (f *FaultTransport) Remote() bool { return f.inner.Remote() }

// Addr implements Transport.
func (f *FaultTransport) Addr(id partition.NodeID) string { return f.inner.Addr(id) }

// Stats implements Transport.
func (f *FaultTransport) Stats() Stats { return f.inner.Stats() }

// Close implements Transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }
