package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
)

// TCP wire protocol (little endian), one request per exchange, connections
// reused across requests:
//
//	request:  u32 magic "ETRN", u8 op, i64 from
//	op 1 (push):     u8 kind, then the "ABAT" batch framing cut into
//	                 segments: (u32 segLen, segLen bytes)*, u32 0 end marker.
//	op 2 (fetch):    u16 nameLen + array name, u8 nDims, nDims × i64 coords.
//	op 3 (announce): i64 node, i32 health, i64 chunks, i64 bytes,
//	                 i64 replicas, i64 replicaBytes, u64 epoch, u64 seq.
//	response: u8 status (0 ok, 1 remote handler error, 2 corrupt stream),
//	          then: fetch ok → u32 payloadLen + "ACNK" chunk payload;
//	          any error → u32 msgLen + message text.
//
// Segmenting the push payload lets the sender stream the encode — total
// batch length is never known up front — while the receiver still gets
// exact framing to decode against. The segment rule: each write of the
// batch writer (the batch header, then one whole frame per chunk) is cut
// into segments of at most segmentSize bytes, and no segment spans two
// writes, so a push's bytes depend only on its chunks.
const (
	tcpMagic = 0x4554524e // "ETRN"

	opPush     = 1
	opFetch    = 2
	opAnnounce = 3

	statusOK      = 0
	statusRemote  = 1
	statusCorrupt = 2

	segmentSize = 32 << 10

	// bodyPrealloc caps what a response body's length prefix can make the
	// client allocate before the bytes arrive.
	bodyPrealloc = 256 << 10
)

// TCPOptions tunes a TCP transport.
type TCPOptions struct {
	// ListenAddr is the address Serve listens on ("127.0.0.1:0" when
	// empty — an OS-assigned loopback port per node).
	ListenAddr string
	// DialTimeout bounds connection establishment (default 5s, < 0
	// disables). A dead endpoint fails the dial instead of hanging it.
	DialTimeout time.Duration
	// IOTimeout bounds one whole RPC exchange — request write through
	// response read — on both the client and the serving side (default
	// 30s, < 0 disables). A peer that stops mid-exchange surfaces as a
	// transient deadline error instead of a wedged goroutine, which is what
	// makes failure detection trustworthy: silence means the node is gone,
	// not that a connection is stuck. Idle pooled connections carry no
	// deadline; it is re-armed per request.
	IOTimeout time.Duration
	// PoolIdleTimeout evicts pooled client connections idle longer than
	// this on next acquire (default 60s, < 0 disables), so the pool never
	// hands out a connection the far side has long abandoned.
	PoolIdleTimeout time.Duration
}

// dialTimeout/ioTimeout/poolIdle resolve the option defaults (< 0 disables).
func (o TCPOptions) dialTimeout() time.Duration {
	if o.DialTimeout < 0 {
		return 0
	}
	if o.DialTimeout == 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o TCPOptions) ioTimeout() time.Duration {
	if o.IOTimeout < 0 {
		return 0
	}
	if o.IOTimeout == 0 {
		return 30 * time.Second
	}
	return o.IOTimeout
}

func (o TCPOptions) poolIdle() time.Duration {
	if o.PoolIdleTimeout < 0 {
		return 0
	}
	if o.PoolIdleTimeout == 0 {
		return 60 * time.Second
	}
	return o.PoolIdleTimeout
}

// TCP is the socket backend: every served node is a goroutine-owned
// listener on a loopback port, every verb one framed request/response
// exchange, and every push a streaming encode into segment frames the
// receiver decodes chunk-at-a-time. See the package comment for the
// delivery and error model.
type TCP struct {
	opts TCPOptions

	mu        sync.RWMutex
	handlers  map[partition.NodeID]Handler
	addrs     map[partition.NodeID]string // served and remote nodes
	listeners map[partition.NodeID]net.Listener
	lookup    func(name string) (*array.Schema, bool) // client-side decode fallback
	closed    bool

	// conns pools idle client connections per destination, newest last;
	// entries idle past PoolIdleTimeout are evicted on acquire.
	connMu sync.Mutex
	conns  map[partition.NodeID][]pooledConn

	// serverConns tracks accepted connections so Close can cut them.
	srvMu     sync.Mutex
	srvConns  map[net.Conn]bool
	accepters sync.WaitGroup

	pushes, pushedBytes, fetches, fetchBytes, announces atomic.Int64
}

// NewTCP returns a TCP transport with no endpoints yet.
func NewTCP(opts TCPOptions) *TCP {
	return &TCP{
		opts:      opts,
		handlers:  make(map[partition.NodeID]Handler),
		addrs:     make(map[partition.NodeID]string),
		listeners: make(map[partition.NodeID]net.Listener),
		conns:     make(map[partition.NodeID][]pooledConn),
		srvConns:  make(map[net.Conn]bool),
	}
}

// pooledConn is one idle client connection with its pool-entry time.
type pooledConn struct {
	c    net.Conn
	idle time.Time
}

// SetSchemaLookup sets the schema resolver a handler-less client (a
// process that only pushes and fetches, like cmd/elasticnode's probe mode)
// decodes fetched payloads with. Served transports resolve through their
// handlers and do not need it.
func (t *TCP) SetSchemaLookup(lookup func(name string) (*array.Schema, bool)) {
	t.mu.Lock()
	t.lookup = lookup
	t.mu.Unlock()
}

// AddRemote registers an externally hosted node (another process's Serve)
// as a push/fetch target.
func (t *TCP) AddRemote(id partition.NodeID, addr string) {
	t.mu.Lock()
	t.addrs[id] = addr
	t.mu.Unlock()
}

// Serve implements Transport: listen, record the address, and own the
// accept loop in a goroutine.
func (t *TCP) Serve(id partition.NodeID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: tcp transport closed")
	}
	if _, dup := t.listeners[id]; dup {
		return fmt.Errorf("transport: node %d already served", id)
	}
	addr := t.opts.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: node %d listen: %w", id, err)
	}
	t.handlers[id] = h
	t.addrs[id] = ln.Addr().String()
	t.listeners[id] = ln
	t.accepters.Add(1)
	go t.acceptLoop(id, ln, h)
	return nil
}

func (t *TCP) acceptLoop(id partition.NodeID, ln net.Listener, h Handler) {
	defer t.accepters.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.srvMu.Lock()
		t.srvConns[conn] = true
		t.srvMu.Unlock()
		go func() {
			t.serveConn(conn, h)
			t.srvMu.Lock()
			delete(t.srvConns, conn)
			t.srvMu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn handles one client connection's requests until it errors or
// closes.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		// No deadline while idle between requests — pooled client
		// connections may legitimately sit quiet — but once a request's
		// magic arrives, the rest of the exchange runs on the I/O budget so
		// a client dying mid-request cannot wedge this goroutine.
		var hdr [13]byte // magic, op, from
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			return
		}
		if binary.LittleEndian.Uint32(hdr[:4]) != tcpMagic {
			return
		}
		clear := t.armDeadline(conn)
		if _, err := io.ReadFull(br, hdr[4:]); err != nil {
			return
		}
		from := partition.NodeID(int64(binary.LittleEndian.Uint64(hdr[5:])))
		var err error
		switch hdr[4] {
		case opPush:
			err = t.servePush(br, bw, from, h)
		case opFetch:
			err = t.serveFetch(br, bw, h)
		case opAnnounce:
			err = t.serveAnnounce(br, bw, from, h)
		default:
			return
		}
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		clear()
	}
}

// writeStatus writes an error response (or the ok status when err is nil).
func writeStatus(bw *bufio.Writer, err error) error {
	if err == nil {
		return bw.WriteByte(statusOK)
	}
	status := byte(statusRemote)
	if errors.Is(err, ErrCorruptStream) {
		status = statusCorrupt
	}
	return writeBody(bw, status, []byte(err.Error()))
}

// writeBody writes a response that carries a body: the status byte, the
// u32 body length, the body.
func writeBody(bw *bufio.Writer, status byte, body []byte) error {
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(append(bw.AvailableBuffer(), status), uint32(len(body)))); err != nil {
		return err
	}
	_, err := bw.Write(body)
	return err
}

// segmentReader presents a push's segment stream as one contiguous reader
// for the batch decoder; the u32 0 end marker reads as io.EOF.
type segmentReader struct {
	r         *bufio.Reader
	remaining int
	done      bool
}

func (s *segmentReader) Read(p []byte) (int, error) {
	for s.remaining == 0 {
		if s.done {
			return 0, io.EOF
		}
		var n [4]byte
		if _, err := io.ReadFull(s.r, n[:]); err != nil {
			return 0, fmt.Errorf("%w: reading segment header: %w", ErrCorruptStream, err)
		}
		s.remaining = int(binary.LittleEndian.Uint32(n[:]))
		s.done = s.remaining == 0
	}
	if len(p) > s.remaining {
		p = p[:s.remaining]
	}
	n, err := s.r.Read(p)
	s.remaining -= n
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%w: %w", ErrCorruptStream, err)
	} else if err == io.EOF {
		err = fmt.Errorf("%w: stream ended inside a segment", ErrCorruptStream)
	}
	return n, err
}

// drain consumes the rest of the segment stream through the end marker, so
// the connection can be reused for the response. A cut stream errors out
// and the connection dies with it.
func (s *segmentReader) drain() error {
	_, err := io.Copy(io.Discard, s)
	return err
}

func (t *TCP) servePush(br *bufio.Reader, bw *bufio.Writer, from partition.NodeID, h Handler) error {
	kind, err := br.ReadByte()
	if err != nil {
		return err
	}
	seg := &segmentReader{r: br}
	dec, err := array.NewChunkBatchStream(h.Schema, seg)
	if err != nil {
		// The framing itself failed to parse: the stream is unusable, cut
		// the connection (the client reports a transient failure).
		return fmt.Errorf("%w: %w", ErrCorruptStream, err)
	}
	next := func() (*array.Chunk, error) {
		ch, err := dec.Next()
		// io.EOF is the clean end only once every declared chunk arrived;
		// a stream that ends early is as corrupt as a torn one.
		if err != nil && (err != io.EOF || dec.Remaining() > 0) && !errors.Is(err, ErrCorruptStream) {
			err = fmt.Errorf("%w: %w", ErrCorruptStream, err)
		}
		return ch, err
	}
	derr := h.Deliver(from, BatchKind(kind), dec.Len(), next)
	if derr != nil {
		// The handler unwound. Drain the stream's residue so the error
		// response can travel back on a clean connection; if the stream is
		// itself torn, give up on the connection.
		if seg.drain() != nil {
			return derr
		}
		return writeStatus(bw, derr)
	}
	// A complete delivery must be followed by the end marker.
	if err := seg.drain(); err != nil {
		return err
	}
	if !seg.done {
		return fmt.Errorf("%w: missing end marker", ErrCorruptStream)
	}
	return writeStatus(bw, nil)
}

func (t *TCP) serveFetch(br *bufio.Reader, bw *bufio.Writer, h Handler) error {
	var nameLen [2]byte
	if _, err := io.ReadFull(br, nameLen[:]); err != nil {
		return err
	}
	name := make([]byte, binary.LittleEndian.Uint16(nameLen[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return err
	}
	nDims, err := br.ReadByte()
	if err != nil {
		return err
	}
	raw := make([]byte, 8*int(nDims))
	if _, err := io.ReadFull(br, raw); err != nil {
		return err
	}
	coords := make(array.ChunkCoord, nDims)
	for i := range coords {
		coords[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	ch, err := h.Fetch(array.ChunkRef{Array: string(name), Coords: coords})
	if err != nil {
		return writeStatus(bw, err)
	}
	payload, err := array.EncodeChunk(ch)
	if err != nil {
		return writeStatus(bw, err)
	}
	return writeBody(bw, statusOK, payload)
}

func (t *TCP) serveAnnounce(br *bufio.Reader, bw *bufio.Writer, from partition.NodeID, h Handler) error {
	var b [8 + 4 + 6*8]byte // the op 3 body
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	a := Announcement{
		Node:         partition.NodeID(int64(le.Uint64(b[0:]))),
		Health:       int32(le.Uint32(b[8:])),
		Chunks:       int64(le.Uint64(b[12:])),
		Bytes:        int64(le.Uint64(b[20:])),
		Replicas:     int64(le.Uint64(b[28:])),
		ReplicaBytes: int64(le.Uint64(b[36:])),
		Epoch:        le.Uint64(b[44:]),
		Seq:          le.Uint64(b[52:]),
	}
	return writeStatus(bw, h.Announce(from, a))
}

// --- client side ----------------------------------------------------------

func (t *TCP) addrOf(id partition.NodeID) (string, error) {
	t.mu.RLock()
	addr, ok := t.addrs[id]
	t.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("transport: node %d is not served", id)
	}
	return addr, nil
}

// conn returns a pooled or fresh connection to the node. Pool entries that
// sat idle past PoolIdleTimeout are dead-conn candidates — the far side may
// have dropped them long ago — so they are closed and skipped rather than
// handed out.
func (t *TCP) conn(id partition.NodeID) (net.Conn, error) {
	maxIdle := t.opts.poolIdle()
	t.connMu.Lock()
	pool := t.conns[id]
	for len(pool) > 0 {
		entry := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if maxIdle > 0 && time.Since(entry.idle) > maxIdle {
			entry.c.Close()
			continue
		}
		t.conns[id] = pool
		t.connMu.Unlock()
		return entry.c, nil
	}
	t.conns[id] = pool
	t.connMu.Unlock()
	addr, err := t.addrOf(id)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, t.opts.dialTimeout())
	if err != nil {
		return nil, markTransient(fmt.Errorf("transport: dial node %d: %w", id, err))
	}
	return conn, nil
}

// armDeadline starts one RPC's I/O budget on the connection; the returned
// func clears it once the exchange completes so a pooled connection does not
// inherit a stale deadline. No-ops when IOTimeout is disabled.
func (t *TCP) armDeadline(conn net.Conn) func() {
	d := t.opts.ioTimeout()
	if d <= 0 {
		return func() {}
	}
	_ = conn.SetDeadline(time.Now().Add(d))
	return func() { _ = conn.SetDeadline(time.Time{}) }
}

// release returns a healthy connection to the pool (bounded per node).
func (t *TCP) release(id partition.NodeID, conn net.Conn) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if len(t.conns[id]) >= 4 {
		conn.Close()
		return
	}
	t.conns[id] = append(t.conns[id], pooledConn{c: conn, idle: time.Now()})
}

// exchange runs one request/response round trip with node to on a pooled
// connection: arm the I/O deadline, write the ETRN header (magic, op, from)
// and the op's body, flush, and read the status. An ok status hands the
// reader to readOK (when set) for the op's response body; any other status
// returns statusError. A connection whose exchange ran to completion goes
// back to the pool; a failure mid-exchange closes it and is transient. The
// returned count is the request bytes written to the socket.
func (t *TCP) exchange(from, to partition.NodeID, op byte, body func(*bufio.Writer) error, readOK func(*bufio.Reader) error) (int64, error) {
	conn, err := t.conn(to)
	if err != nil {
		return 0, err
	}
	clear := t.armDeadline(conn)
	cw := &countingWriter{w: conn}
	fail := func(err error) (int64, error) {
		conn.Close()
		return cw.n, markTransient(err)
	}
	bw := bufio.NewWriter(cw)
	hdr := binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), tcpMagic)
	hdr = binary.LittleEndian.AppendUint64(append(hdr, op), uint64(from))
	_, _ = bw.Write(hdr) // fits the empty buffer, cannot fail
	if err := body(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadByte()
	if err != nil {
		return fail(fmt.Errorf("transport: reading response: %w", err))
	}
	var remote error
	if status != statusOK {
		msg, err := readBody(br)
		if err != nil {
			return fail(fmt.Errorf("transport: reading response: %w", err))
		}
		remote = statusError(status, string(msg))
	} else if readOK != nil {
		if err := readOK(br); err != nil {
			return fail(err)
		}
	}
	clear()
	t.release(to, conn)
	return cw.n, remote
}

// readBody reads a u32-length-prefixed response body. The length is the
// peer's word, so the buffer grows with the bytes that actually arrive
// (through an io.LimitReader) rather than being allocated from the prefix;
// a body shorter than its prefix is io.ErrUnexpectedEOF.
func readBody(br *bufio.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(br, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	body := make([]byte, 0, min(n, bodyPrealloc))
	lr := io.LimitReader(br, int64(n))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(len(body), n-len(body)))
		}
		m, err := lr.Read(body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// statusError converts a non-ok response into the client-side error.
func statusError(status byte, msg string) error {
	if status == statusCorrupt {
		return markTransient(fmt.Errorf("%w: %s", ErrCorruptStream, msg))
	}
	return &RemoteError{Msg: msg}
}

// countingWriter counts bytes flowing into the socket.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// PushChunks implements Transport: stream the batch encode into segment
// frames on the socket, then wait for the receiver's verdict. The returned
// bytes are what actually crossed the wire (header, segments and markers
// included).
func (t *TCP) PushChunks(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error) {
	return t.push(from, to, kind, chunks, 0)
}

// pushTruncated is the FaultTransport partial-write hook: stream the batch
// but cut the connection before the final trunc bytes (and the end marker)
// are sent, so the receiver observes a torn stream mid-decode.
func (t *TCP) pushTruncated(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk) (int64, error) {
	wire, err := t.push(from, to, kind, chunks, 64)
	if err == nil {
		err = fmt.Errorf("transport: truncated push unexpectedly succeeded")
	}
	return wire, err
}

func (t *TCP) push(from, to partition.NodeID, kind BatchKind, chunks []*array.Chunk, trunc int) (int64, error) {
	wire, err := t.exchange(from, to, opPush, func(bw *bufio.Writer) error {
		if err := bw.WriteByte(byte(kind)); err != nil {
			return err
		}
		return writeSegments(bw, chunks, trunc)
	}, nil)
	if err == nil {
		t.pushes.Add(1)
		t.pushedBytes.Add(wire)
	}
	return wire, err
}

// writeSegments streams the batch encode into bw as wire segments. One
// encoder goroutine frames the chunks into an io.Pipe while this goroutine
// drains it, so encoding the next chunk overlaps writing the last one to
// the socket. A pipe Read never spans two Writes, which is what makes
// every segment a piece of one batch-writer write (the segment rule).
// With trunc > 0 — the fault-injected partial write — the final segment
// is cut trunc bytes short and the end marker never sent. The encoder is
// done by the time writeSegments returns, whichever way it returns.
func writeSegments(bw *bufio.Writer, chunks []*array.Chunk, trunc int) error {
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc, err := array.NewChunkBatchWriter(pw, len(chunks))
		for i := 0; err == nil && i < len(chunks); i++ {
			err = enc.Write(chunks[i])
		}
		if err == nil {
			err = enc.Close()
		}
		pw.CloseWithError(err) // nil = clean EOF
	}()
	defer func() {
		pr.Close() // fails an encoder Write still blocked on a drain that gave up
		<-done
	}()

	seg := make([]byte, segmentSize)
	var pending []byte
	for {
		n, err := pr.Read(seg)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if trunc == 0 {
			err = writeSegment(bw, seg[:n], n)
		} else {
			// A partial write holds each segment back one step, so the
			// final one can be cut short whatever the batch size.
			if pending != nil {
				err = writeSegment(bw, pending, len(pending))
			}
			pending = append(pending[:0], seg[:n]...)
		}
		if err != nil {
			return err
		}
	}
	if trunc > 0 {
		// Cut the final segment (or, for an empty batch, just omit the end
		// marker); the exchange then kills the connection, so the receiver
		// sees a torn stream. The flush error is moot: the push fails anyway.
		if pending != nil {
			_ = writeSegment(bw, pending, max(len(pending)-trunc, 0))
		}
		_ = bw.Flush()
		return fmt.Errorf("%w: %w: connection cut %d bytes early", ErrInjected, ErrCorruptStream, trunc)
	}
	_, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), 0)) // end marker
	return err
}

// writeSegment frames p as one segment but sends only its first keep bytes
// (keep < len(p) tears the stream).
func writeSegment(bw *bufio.Writer, p []byte, keep int) error {
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(p)))); err != nil {
		return err
	}
	_, err := bw.Write(p[:keep])
	return err
}

// lookupFor resolves the schema registry the client side decodes fetched
// payloads with: the from node's handler when served locally, any served
// handler otherwise, the explicit SetSchemaLookup resolver as a last
// resort.
func (t *TCP) lookupFor(from partition.NodeID) (func(name string) (*array.Schema, bool), error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if h, ok := t.handlers[from]; ok {
		return h.Schema, nil
	}
	for _, h := range t.handlers {
		return h.Schema, nil
	}
	if t.lookup != nil {
		return t.lookup, nil
	}
	return nil, fmt.Errorf("transport: no schema registry to decode fetches with (serve a node or SetSchemaLookup)")
}

// FetchChunk implements Transport: one framed request/response exchange,
// the payload decoded from its "ACNK" wire form.
func (t *TCP) FetchChunk(from, to partition.NodeID, ref array.ChunkRef) (*array.Chunk, int64, error) {
	lookup, err := t.lookupFor(from)
	if err != nil {
		return nil, 0, err
	}
	s, ok := lookup(ref.Array)
	if !ok {
		return nil, 0, fmt.Errorf("transport: fetch of unknown array %q", ref.Array)
	}
	var payload []byte
	written, err := t.exchange(from, to, opFetch, func(bw *bufio.Writer) error {
		b := binary.LittleEndian.AppendUint16(bw.AvailableBuffer(), uint16(len(ref.Array)))
		b = append(append(b, ref.Array...), byte(len(ref.Coords)))
		for _, c := range ref.Coords {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
		_, err := bw.Write(b)
		return err
	}, func(br *bufio.Reader) (err error) {
		payload, err = readBody(br)
		return err
	})
	if err != nil {
		return nil, written, err
	}
	ch, err := array.DecodeChunk(s, payload)
	if err != nil {
		return nil, written, fmt.Errorf("transport: fetched %s: %w", ref, err)
	}
	wire := written + int64(len(payload)) + 5
	t.fetches.Add(1)
	t.fetchBytes.Add(wire)
	return ch, wire, nil
}

// Announce implements Transport.
func (t *TCP) Announce(from, to partition.NodeID, a Announcement) error {
	_, err := t.exchange(from, to, opAnnounce, func(bw *bufio.Writer) error {
		le := binary.LittleEndian
		b := le.AppendUint64(bw.AvailableBuffer(), uint64(a.Node))
		b = le.AppendUint32(b, uint32(a.Health))
		for _, v := range [...]uint64{uint64(a.Chunks), uint64(a.Bytes), uint64(a.Replicas), uint64(a.ReplicaBytes), a.Epoch, a.Seq} {
			b = le.AppendUint64(b, v)
		}
		_, err := bw.Write(b)
		return err
	}, nil)
	if err == nil {
		t.announces.Add(1)
	}
	return err
}

// Remote implements Transport: payloads cross sockets.
func (t *TCP) Remote() bool { return true }

// Addr implements Transport.
func (t *TCP) Addr(id partition.NodeID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.addrs[id]
}

// Stats implements Transport.
func (t *TCP) Stats() Stats {
	return Stats{
		Pushes:      t.pushes.Load(),
		PushedBytes: t.pushedBytes.Load(),
		Fetches:     t.fetches.Load(),
		FetchBytes:  t.fetchBytes.Load(),
		Announces:   t.announces.Load(),
	}
}

// Close implements Transport: stop the listeners, cut every connection,
// wait for the accept loops.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	listeners := t.listeners
	t.listeners = make(map[partition.NodeID]net.Listener)
	t.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	t.connMu.Lock()
	for _, pool := range t.conns {
		for _, entry := range pool {
			entry.c.Close()
		}
	}
	t.conns = make(map[partition.NodeID][]pooledConn)
	t.connMu.Unlock()
	t.srvMu.Lock()
	for conn := range t.srvConns {
		conn.Close()
	}
	t.srvMu.Unlock()
	t.accepters.Wait()
	return nil
}
