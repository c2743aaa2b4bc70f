package cluster

import (
	"fmt"
	"sync"

	"repro/internal/array"
	"repro/internal/transport"
)

// ErrInjected is the sentinel wrapped by every failure a FaultStore
// injects, so tests can assert a fault was synthetic (errors.Is) rather
// than a real store defect. It is the same sentinel the transport layer's
// FaultTransport wraps, so one errors.Is covers both fault domains.
var ErrInjected = transport.ErrInjected

// FaultStore wraps a ChunkStore with programmable write faults, the
// fixture fault-tolerance tests and benchmarks share: fail the next N puts,
// or fail every put of one specific chunk N times (N < 0 = always). Reads
// are never injected — the cluster's recovery machinery treats stores as
// write-fallible, read-reliable, matching the transient-fault model the
// retry path targets.
//
// All knobs are safe for concurrent use with the store itself; injected
// errors wrap ErrInjected.
type FaultStore struct {
	ChunkStore

	mu       sync.Mutex
	nextN    int                    // fail the next n puts of any chunk
	perKey   map[array.ChunkKey]int // remaining failures per chunk, -1 = always
	injected int
}

// NewFaultStore wraps inner (NewMemStore() when nil) with no faults armed.
func NewFaultStore(inner ChunkStore) *FaultStore {
	if inner == nil {
		inner = NewMemStore()
	}
	return &FaultStore{ChunkStore: inner, perKey: make(map[array.ChunkKey]int)}
}

// FailNextPuts arms the store to fail the next n Put calls, whatever chunk
// they carry.
func (s *FaultStore) FailNextPuts(n int) {
	s.mu.Lock()
	s.nextN = n
	s.mu.Unlock()
}

// FailPuts arms the store to fail the next n Put calls for one specific
// chunk; n < 0 fails that chunk's puts forever (the permanent-fault knob
// rollback tests use).
func (s *FaultStore) FailPuts(ref array.ChunkRef, n int) {
	s.mu.Lock()
	s.perKey[ref.Packed()] = n
	s.mu.Unlock()
}

// Injected returns how many faults the store has injected so far.
func (s *FaultStore) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Put implements ChunkStore, consulting the armed fault knobs first.
func (s *FaultStore) Put(c *array.Chunk) error {
	if err := s.inject(c); err != nil {
		return err
	}
	return s.ChunkStore.Put(c)
}

func (s *FaultStore) inject(c *array.Chunk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := false
	if s.nextN > 0 {
		s.nextN--
		fail = true
	}
	if n, ok := s.perKey[c.Key()]; ok && !fail {
		if n < 0 {
			fail = true
		} else if n > 0 {
			s.perKey[c.Key()] = n - 1
			fail = true
		}
	}
	if !fail {
		return nil
	}
	s.injected++
	return fmt.Errorf("%w: put %s", ErrInjected, c.Ref())
}
