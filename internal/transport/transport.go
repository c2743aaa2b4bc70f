// Package transport is the cluster's pluggable node-to-node data plane:
// how chunk batches, single-chunk fetches and health/holdings
// announcements travel between nodes.
//
// The cluster core stays transport-agnostic. It speaks to a Transport
// through three verbs — PushChunks (a rebalance or ingest receiver's whole
// batch, delivered atomically), FetchChunk (a query-layer remote pull) and
// Announce (a node's health/holdings heartbeat) — and serves each of its
// nodes to the transport as a Handler. Two backends implement the
// contract:
//
//   - Loopback: in-process delivery by reference. Chunks cross as
//     pointers, nothing is encoded, and a push costs what the handler's
//     store writes cost. This is the default: a cluster configured with
//     no transport runs on one, so the in-process cluster and the TCP
//     cluster execute the same ingest, rebalance and recovery code.
//   - TCP: every node is a goroutine-owned socket server and every verb is
//     one length-prefixed request/response exchange reusing the array
//     package's "ABAT" batch framing as the payload protocol. Batches
//     stream on both ends — the sender encodes chunk-at-a-time through an
//     io.Pipe into segments of at most 32 KiB, each cut from one chunk
//     frame, and the receiver decodes chunk-at-a-time off the segment
//     stream — so a migration's peak memory is O(one chunk) per side,
//     never the batch.
//
// Fault injection mirrors the store layer's FaultStore: wrap any backend
// in a FaultTransport to inject latency, connection drops and truncated
// (partial) writes, every synthetic failure wrapping ErrInjected.
//
// # Error model
//
// A push either delivers its whole batch or leaves the receiver untouched
// (the Handler unwinds on any mid-batch error), so retrying a failed push
// is always safe — provided the failure is a transport fault and not the
// remote handler's verdict. IsTransient separates the two: injected
// faults, connection errors and mid-stream corruption are transient
// (retry-worthy); a *RemoteError — the remote handler ran and refused — is
// not. The TCP backend assumes at-most-once delivery per attempt: requests
// ride loopback/LAN sockets where a response is lost only if the
// connection itself died before the handler committed.
package transport

import (
	"errors"
	"fmt"

	"repro/internal/array"
	"repro/internal/partition"
)

// BatchKind tells the receiving handler what a pushed batch is, which
// decides the store it lands in and the retry policy applied per chunk.
type BatchKind uint8

const (
	// KindIngest: primary ingest writes (plain store puts, the Eq 6 path).
	KindIngest BatchKind = iota + 1
	// KindRebalance: a rebalance receiver's batch (store puts with the
	// cluster's transient-fault retry).
	KindRebalance
	// KindReplica: secondary/replicated-array copies (replica-map puts).
	KindReplica
)

func (k BatchKind) String() string {
	switch k {
	case KindIngest:
		return "ingest"
	case KindRebalance:
		return "rebalance"
	case KindReplica:
		return "replica"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Announcement is a node's health/holdings heartbeat: what it is, what it
// holds, and the topology epoch it observed — the minimum a coordinator
// needs to audit a remote node without walking its store.
type Announcement struct {
	Node         partition.NodeID
	Health       int32 // cluster.NodeHealth value
	Chunks       int64 // resident primary chunks
	Bytes        int64 // primary payload bytes
	Replicas     int64 // resident replica payloads
	ReplicaBytes int64 // replica payload bytes
	Epoch        uint64
	// Seq is the sender's monotonic heartbeat sequence number. A failure
	// detector keys liveness off it: a repeated or regressed Seq is a stale
	// delivery, not a fresh sign of life.
	Seq uint64
}

// Handler is the node-side service a Transport delivers to: the cluster
// registers one per node via Serve.
type Handler interface {
	// Deliver receives one pushed batch of n chunks. next yields the
	// chunks in frame order and returns io.EOF after the last; any other
	// error from next means the stream is corrupt. Delivery is atomic: on
	// any error — decode or store — the handler must unwind whatever it
	// stored of this batch before returning, so the sender can safely
	// retry or roll back.
	Deliver(from partition.NodeID, kind BatchKind, n int, next func() (*array.Chunk, error)) error
	// Fetch returns the payload of a chunk the node serves — a resident
	// primary or a held replica.
	Fetch(ref array.ChunkRef) (*array.Chunk, error)
	// Announce records a peer node's heartbeat.
	Announce(from partition.NodeID, a Announcement) error
	// Schema resolves an array name, for decoding wire payloads.
	Schema(name string) (*array.Schema, bool)
}

// Transport moves chunks between nodes. Implementations must be safe for
// concurrent use: parallel rebalance receivers, ingest fan-out goroutines
// and query workers all push and fetch concurrently.
type Transport interface {
	// Serve registers (and for socket backends starts) the endpoint for
	// node id, dispatching its traffic to h.
	Serve(id partition.NodeID, h Handler) error
	// PushChunks delivers a batch to node to, atomically, and returns the
	// bytes that crossed the wire (frame bytes for socket backends, payload
	// bytes for in-process ones).
	PushChunks(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error)
	// FetchChunk pulls one chunk from node to, returning the payload and
	// the bytes that crossed the wire.
	FetchChunk(from, to partition.NodeID, ref array.ChunkRef) (*array.Chunk, int64, error)
	// Announce delivers a heartbeat to node to, best-effort.
	Announce(from, to partition.NodeID, a Announcement) error
	// Remote reports whether payloads actually leave the address space —
	// the gate the query layer checks before paying for wire pulls of
	// chunks it could read by pointer.
	Remote() bool
	// Addr returns the dialable address of a served node, or "" for
	// in-process endpoints.
	Addr(id partition.NodeID) string
	// Stats returns cumulative traffic counters.
	Stats() Stats
	// Close tears down every endpoint and connection.
	Close() error
}

// Stats are a transport's cumulative traffic counters.
type Stats struct {
	Pushes      int64 // successful batch pushes
	PushedBytes int64 // wire bytes of successful pushes
	Fetches     int64 // successful chunk fetches
	FetchBytes  int64 // wire bytes of successful fetches
	Announces   int64 // successful announcements
}

// ErrInjected is the sentinel wrapped by every failure a FaultTransport
// (or the store layer's FaultStore, which aliases it) injects, so tests
// can assert a fault was synthetic rather than a real defect. Match with
// errors.Is.
var ErrInjected = errors.New("injected store fault")

// ErrCorruptStream marks a batch stream that failed to decode mid-flight —
// framing violated, magic wrong, payload truncated. A handler returning it
// signals the bytes, not the store, were at fault, so the failure is
// transient and the sender may retry the push.
var ErrCorruptStream = errors.New("chunk batch corrupt in transit")

// RemoteError is a remote handler's refusal carried back over a socket
// backend: the request was delivered and the handler ran, so retrying the
// same push is pointless. The original error's identity is lost in wire
// transit; Msg preserves its text.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }

// transientError marks a failure worth retrying: the push may not have
// reached the remote handler at all.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient implements the interface IsTransient probes.
func (e *transientError) Transient() bool { return true }

// markTransient wraps err as retry-worthy (nil stays nil).
func markTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether a push/fetch failure is worth retrying: the
// transport may not have delivered the request, or the delivered bytes
// were corrupt and the receiver unwound. Remote handler verdicts and local
// usage errors are not transient.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	if errors.Is(err, ErrCorruptStream) {
		return true
	}
	return false
}
