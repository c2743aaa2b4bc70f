package transport

import (
	"fmt"
	"io"
	"sync"
)

// Ring is a bounded in-memory byte pipe: a fixed circular buffer where
// Write blocks while the buffer is full and Read blocks while it is empty.
// It is the backpressure seam of a streaming push — the encoder goroutine
// writes chunk frames in as fast as the socket drains them out, and the
// ring's capacity is the hard cap on how far encode may run ahead of the
// wire, making a migration's peak sender memory O(ring + one chunk)
// instead of O(batch).
//
// One writer and one reader side: the writer finishes with CloseWrite
// (reader drains the residue, then sees io.EOF) or aborts both sides with
// CloseWithError. Safe for one goroutine per side.
type Ring struct {
	mu       sync.Mutex
	notFull  sync.Cond // writer waits: space available
	notEmpty sync.Cond // reader waits: bytes (or EOF) available

	buf    []byte
	r, w   int   // read/write cursors
	n      int   // bytes buffered
	closed bool  // writer side finished
	err    error // terminal error, aborts both sides
}

// NewRing returns a ring buffer of the given capacity in bytes.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = 64 << 10
	}
	r := &Ring{buf: make([]byte, size)}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// Write implements io.Writer, blocking while the ring is full. Writing
// after CloseWrite, or after CloseWithError, fails.
func (r *Ring) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	written := 0
	for len(p) > 0 {
		for r.n == len(r.buf) && r.err == nil && !r.closed {
			r.notFull.Wait()
		}
		if r.err != nil {
			return written, r.err
		}
		if r.closed {
			return written, fmt.Errorf("transport: write on closed ring")
		}
		// Copy what fits, up to the wrap point.
		free := len(r.buf) - r.n
		chunk := len(p)
		if chunk > free {
			chunk = free
		}
		tail := len(r.buf) - r.w
		if chunk > tail {
			chunk = tail
		}
		copy(r.buf[r.w:], p[:chunk])
		r.w = (r.w + chunk) % len(r.buf)
		r.n += chunk
		p = p[chunk:]
		written += chunk
		r.notEmpty.Signal()
	}
	return written, nil
}

// Read implements io.Reader, blocking while the ring is empty. Once the
// writer side has closed, Read drains the residue and then returns io.EOF
// (or the writer's terminal error).
func (r *Ring) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 {
		if r.err != nil {
			return 0, r.err
		}
		if r.closed {
			return 0, io.EOF
		}
		r.notEmpty.Wait()
	}
	chunk := len(p)
	if chunk > r.n {
		chunk = r.n
	}
	tail := len(r.buf) - r.r
	if chunk > tail {
		chunk = tail
	}
	copy(p, r.buf[r.r:r.r+chunk])
	r.r = (r.r + chunk) % len(r.buf)
	r.n -= chunk
	r.notFull.Signal()
	return chunk, nil
}

// CloseWrite marks the writer side finished: the reader drains what is
// buffered and then sees io.EOF.
func (r *Ring) CloseWrite() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}

// CloseWithError aborts both sides with err (nil behaves like CloseWrite):
// blocked and future Writes fail with err, and Reads return it once the
// buffered bytes — which may be a torn frame — are abandoned (the reader
// sees err immediately; residue is discarded).
func (r *Ring) CloseWithError(err error) {
	if err == nil {
		r.CloseWrite()
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.closed = true
	r.n = 0
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}
