package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/partition"
)

// testSchema mirrors the array package's test fixture: a small 2-D array
// with one attribute per cell, enough to exercise framing without bulk.
func testSchema(name string) *array.Schema {
	return array.MustSchema(name,
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 499, ChunkInterval: 5},
			{Name: "y", Start: 0, End: 499, ChunkInterval: 5},
		})
}

// fillChunk builds a chunk with n cells laid along the chunk's first row.
func fillChunk(t *testing.T, s *array.Schema, cc array.ChunkCoord, n int) *array.Chunk {
	t.Helper()
	c := array.NewChunk(s, cc)
	origin := s.ChunkOrigin(cc)
	for i := 0; i < n; i++ {
		c.AppendCell(array.Coord{origin[0] + int64(i%5), origin[1] + int64(i/5)},
			[]array.CellValue{{Float: float64(i) * 1.5}})
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("fixture chunk invalid: %v", err)
	}
	return c
}

// memHandler is a Handler with receiver-atomic delivery: a batch commits
// all-or-nothing, mirroring the contract the cluster's node service
// provides. It records announcements and supports a programmable
// per-delivery failure.
type memHandler struct {
	mu        sync.Mutex
	schemas   map[string]*array.Schema
	chunks    map[string]*array.Chunk
	announced []Announcement
	failNext  error // next Deliver refuses with this error
	delivers  int
}

func newMemHandler(schemas ...*array.Schema) *memHandler {
	m := &memHandler{
		schemas: make(map[string]*array.Schema),
		chunks:  make(map[string]*array.Chunk),
	}
	for _, s := range schemas {
		m.schemas[s.Name] = s
	}
	return m
}

func (m *memHandler) Deliver(from partition.NodeID, kind BatchKind, n int, next func() (*array.Chunk, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delivers++
	if m.failNext != nil {
		err := m.failNext
		m.failNext = nil
		return err
	}
	var staged []*array.Chunk
	for i := 0; i < n; i++ {
		ch, err := next()
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err) // nothing staged commits
		}
		staged = append(staged, ch)
	}
	for _, ch := range staged {
		m.chunks[array.ChunkRef{Array: ch.Schema.Name, Coords: ch.Coords}.Key()] = ch
	}
	return nil
}

func (m *memHandler) Fetch(ref array.ChunkRef) (*array.Chunk, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.chunks[ref.Key()]
	if !ok {
		return nil, fmt.Errorf("chunk %s not resident", ref)
	}
	return ch, nil
}

func (m *memHandler) Announce(from partition.NodeID, a Announcement) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.announced = append(m.announced, a)
	return nil
}

// Schema reads without the lock: the schemas map is immutable after
// construction, and the TCP decode path calls it from inside Deliver's
// next (which the handler invokes while holding mu).
func (m *memHandler) Schema(name string) (*array.Schema, bool) {
	s, ok := m.schemas[name]
	return s, ok
}

func (m *memHandler) chunkCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.chunks)
}

func (m *memHandler) setFailNext(err error) {
	m.mu.Lock()
	m.failNext = err
	m.mu.Unlock()
}

// sameChunk compares two chunks by their canonical wire encoding.
func sameChunk(t *testing.T, a, b *array.Chunk) bool {
	t.Helper()
	ae, err := array.EncodeChunk(a)
	if err != nil {
		t.Fatal(err)
	}
	be, err := array.EncodeChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ae, be)
}

// eachBackend runs a subtest against both built-in backends, so every
// contract test pins loopback and TCP to identical observable behaviour.
func eachBackend(t *testing.T, fn func(t *testing.T, tr Transport, h1, h2 *memHandler)) {
	t.Helper()
	s := testSchema("A")
	for _, backend := range []string{"loopback", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			var tr Transport
			if backend == "tcp" {
				tr = NewTCP(TCPOptions{})
			} else {
				tr = NewLoopback()
			}
			defer tr.Close()
			h1, h2 := newMemHandler(s), newMemHandler(s)
			if err := tr.Serve(1, h1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Serve(2, h2); err != nil {
				t.Fatal(err)
			}
			fn(t, tr, h1, h2)
		})
	}
}

func TestPushRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		s := testSchema("A")
		chunks := []*array.Chunk{
			fillChunk(t, s, array.ChunkCoord{0, 0}, 7),
			fillChunk(t, s, array.ChunkCoord{1, 0}, 25),
			fillChunk(t, s, array.ChunkCoord{0, 1}, 1),
		}
		wire, err := tr.PushChunks(1, 2, KindRebalance, chunks)
		if err != nil {
			t.Fatalf("PushChunks: %v", err)
		}
		if wire <= 0 {
			t.Fatalf("wire bytes = %d, want > 0", wire)
		}
		if h2.chunkCount() != len(chunks) {
			t.Fatalf("receiver holds %d chunks, want %d", h2.chunkCount(), len(chunks))
		}
		for _, want := range chunks {
			got, err := h2.Fetch(array.ChunkRef{Array: want.Schema.Name, Coords: want.Coords})
			if err != nil {
				t.Fatal(err)
			}
			if !sameChunk(t, want, got) {
				t.Fatalf("chunk %v corrupted in transit", want.Coords)
			}
		}
		if st := tr.Stats(); st.Pushes != 1 || st.PushedBytes != wire {
			t.Fatalf("Stats = %+v, want 1 push of %d bytes", st, wire)
		}
	})
}

func TestPushEmptyBatch(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		if _, err := tr.PushChunks(1, 2, KindIngest, nil); err != nil {
			t.Fatalf("empty push: %v", err)
		}
	})
}

func TestPushToUnservedNode(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		s := testSchema("A")
		_, err := tr.PushChunks(1, 99, KindIngest, []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 1)})
		if err == nil {
			t.Fatal("push to unserved node succeeded")
		}
	})
}

// TestPushHandlerRefusal pins the error model: a handler that refuses a
// batch yields a non-transient error (over TCP, a *RemoteError) — the
// remote made a decision, retrying won't change it — and commits nothing.
func TestPushHandlerRefusal(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		s := testSchema("A")
		h2.setFailNext(errors.New("store full"))
		_, err := tr.PushChunks(1, 2, KindIngest, []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 3)})
		if err == nil {
			t.Fatal("refused push reported success")
		}
		if IsTransient(err) {
			t.Fatalf("handler refusal classified transient: %v", err)
		}
		if tr.Remote() {
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "store full") {
				t.Fatalf("remote refusal = %v, want *RemoteError carrying the message", err)
			}
		}
		if h2.chunkCount() != 0 {
			t.Fatalf("receiver committed %d chunks from a refused batch", h2.chunkCount())
		}
		// The connection survives a refusal: the next push must succeed.
		if _, err := tr.PushChunks(1, 2, KindIngest, []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 3)}); err != nil {
			t.Fatalf("push after refusal: %v", err)
		}
	})
}

// TestPushTruncatedUnwinds pins the partial-write fault: the receiver
// observes a torn stream, commits nothing, and the sender's error is
// transient and carries ErrInjected.
func TestPushTruncatedUnwinds(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		tp, ok := tr.(truncatablePusher)
		if !ok {
			t.Fatalf("%T does not support partial-write injection", tr)
		}
		s := testSchema("A")
		chunks := []*array.Chunk{
			fillChunk(t, s, array.ChunkCoord{0, 0}, 20),
			fillChunk(t, s, array.ChunkCoord{1, 0}, 20),
		}
		_, err := tp.pushTruncated(1, 2, KindRebalance, chunks)
		if err == nil {
			t.Fatal("truncated push reported success")
		}
		if !IsTransient(err) {
			t.Fatalf("truncated push not transient: %v", err)
		}
		if h2.chunkCount() != 0 {
			t.Fatalf("receiver committed %d chunks from a torn stream", h2.chunkCount())
		}
		// Whole-batch retry on a fresh connection succeeds — the delivery
		// atomicity that makes transport-level retries safe.
		if _, err := tr.PushChunks(1, 2, KindRebalance, chunks); err != nil {
			t.Fatalf("retry after truncation: %v", err)
		}
		if h2.chunkCount() != len(chunks) {
			t.Fatalf("retry committed %d chunks, want %d", h2.chunkCount(), len(chunks))
		}
	})
}

func TestFetchRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		s := testSchema("A")
		want := fillChunk(t, s, array.ChunkCoord{1, 1}, 12)
		if _, err := tr.PushChunks(1, 2, KindIngest, []*array.Chunk{want}); err != nil {
			t.Fatal(err)
		}
		got, wire, err := tr.FetchChunk(1, 2, array.ChunkRef{Array: "A", Coords: array.ChunkCoord{1, 1}})
		if err != nil {
			t.Fatalf("FetchChunk: %v", err)
		}
		if !sameChunk(t, want, got) {
			t.Fatal("fetched chunk differs from the resident one")
		}
		if wire <= 0 {
			t.Fatalf("fetch wire bytes = %d, want > 0", wire)
		}
		if _, _, err := tr.FetchChunk(1, 2, array.ChunkRef{Array: "A", Coords: array.ChunkCoord{0, 0}}); err == nil {
			t.Fatal("fetch of a non-resident chunk succeeded")
		}
	})
}

func TestAnnounceRoundTrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		a := Announcement{Node: 1, Health: 2, Chunks: 34, Bytes: 5678, Replicas: 9, ReplicaBytes: 1011, Epoch: 12}
		if err := tr.Announce(1, 2, a); err != nil {
			t.Fatalf("Announce: %v", err)
		}
		h2.mu.Lock()
		defer h2.mu.Unlock()
		if len(h2.announced) != 1 || h2.announced[0] != a {
			t.Fatalf("receiver recorded %+v, want exactly %+v", h2.announced, a)
		}
	})
}

// TestConcurrentPushes hammers one receiver from many goroutines — the
// -race run is the real assertion; the counts confirm nothing was lost.
func TestConcurrentPushes(t *testing.T) {
	eachBackend(t, func(t *testing.T, tr Transport, h1, h2 *memHandler) {
		s := testSchema("A")
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ch := fillChunk(t, s, array.ChunkCoord{int64(w), 0}, 5)
				if _, err := tr.PushChunks(1, 2, KindIngest, []*array.Chunk{ch}); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent push: %v", err)
		}
		if h2.chunkCount() != workers {
			t.Fatalf("receiver holds %d chunks, want %d", h2.chunkCount(), workers)
		}
	})
}

// TestTCPStreamingLargeBatch pushes chunks whose frames exceed one
// segment, so each is cut into several, and pins the push's wire bytes
// exactly to the segment rule: the request header, the batch header as one
// segment, every chunk frame in ceil(frame/32 KiB) segments, and the end
// marker.
func TestTCPStreamingLargeBatch(t *testing.T) {
	const segment = 32 << 10
	s := array.MustSchema("Big",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{
			{Name: "x", Start: 0, End: 255, ChunkInterval: 64},
			{Name: "y", Start: 0, End: 255, ChunkInterval: 64},
		})
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	h := newMemHandler(s)
	if err := tr.Serve(2, h); err != nil {
		t.Fatal(err)
	}
	want := int64(14 + 4 + 10 + 4) // request header, batch header segment, end marker
	var chunks []*array.Chunk
	for i := int64(0); i < 4; i++ {
		cc := array.ChunkCoord{i, 3 - i}
		c := array.NewChunk(s, cc)
		origin := s.ChunkOrigin(cc)
		for j := int64(0); j < 64*64; j++ {
			c.AppendCell(array.Coord{origin[0] + j%64, origin[1] + j/64}, []array.CellValue{{Float: float64(j)}})
		}
		payload, err := array.EncodeChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		frame := 2 + len(s.Name) + len(payload)
		if frame <= segment {
			t.Fatalf("chunk frame is %d bytes, want more than one %d-byte segment", frame, segment)
		}
		want += int64(frame + 4*((frame+segment-1)/segment))
		chunks = append(chunks, c)
	}
	wire, err := tr.PushChunks(1, 2, KindRebalance, chunks)
	if err != nil {
		t.Fatalf("large streaming push: %v", err)
	}
	if wire != want {
		t.Fatalf("wire bytes = %d, want %d", wire, want)
	}
	if h.chunkCount() != len(chunks) {
		t.Fatalf("receiver holds %d chunks, want %d", h.chunkCount(), len(chunks))
	}
}

// TestTCPAddrAndRemote pins the backend self-description the cluster keys
// decisions off: TCP is remote with dialable per-node addresses, loopback
// is neither.
func TestTCPAddrAndRemote(t *testing.T) {
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	if err := tr.Serve(1, newMemHandler(testSchema("A"))); err != nil {
		t.Fatal(err)
	}
	if !tr.Remote() {
		t.Fatal("TCP transport reports Remote() = false")
	}
	if addr := tr.Addr(1); !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("Addr(1) = %q, want a loopback endpoint", addr)
	}
	lb := NewLoopback()
	if lb.Remote() || lb.Addr(1) != "" {
		t.Fatal("loopback transport claims remote endpoints")
	}
}

func TestTCPServeDuplicate(t *testing.T) {
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	h := newMemHandler(testSchema("A"))
	if err := tr.Serve(1, h); err != nil {
		t.Fatal(err)
	}
	if err := tr.Serve(1, h); err == nil {
		t.Fatal("duplicate Serve succeeded")
	}
}

// TestTCPCrossProcessStyle drives two separate TCP transports — one pure
// server, one pure client wired up via AddRemote + SetSchemaLookup — the
// exact shape of a multi-process deployment.
func TestTCPCrossProcessStyle(t *testing.T) {
	s := testSchema("A")
	server := NewTCP(TCPOptions{})
	defer server.Close()
	h := newMemHandler(s)
	if err := server.Serve(7, h); err != nil {
		t.Fatal(err)
	}

	client := NewTCP(TCPOptions{})
	defer client.Close()
	client.AddRemote(7, server.Addr(7))
	client.SetSchemaLookup(func(name string) (*array.Schema, bool) { return s, name == s.Name })

	want := fillChunk(t, s, array.ChunkCoord{0, 0}, 9)
	if _, err := client.PushChunks(100, 7, KindIngest, []*array.Chunk{want}); err != nil {
		t.Fatalf("cross-transport push: %v", err)
	}
	got, _, err := client.FetchChunk(100, 7, array.ChunkRef{Array: "A", Coords: array.ChunkCoord{0, 0}})
	if err != nil {
		t.Fatalf("cross-transport fetch: %v", err)
	}
	if !sameChunk(t, want, got) {
		t.Fatal("chunk corrupted across transports")
	}
	if err := client.Announce(100, 7, Announcement{Node: 100, Health: 1}); err != nil {
		t.Fatalf("cross-transport announce: %v", err)
	}
}

func TestFaultTransportDrop(t *testing.T) {
	s := testSchema("A")
	ft := NewFaultTransport(nil)
	h := newMemHandler(s)
	if err := ft.Serve(2, h); err != nil {
		t.Fatal(err)
	}
	ft.FailNextPushes(2)
	chunks := []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 4)}
	for i := 0; i < 2; i++ {
		_, err := ft.PushChunks(1, 2, KindRebalance, chunks)
		if err == nil {
			t.Fatalf("armed push %d succeeded", i)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("dropped push error %v does not match ErrInjected", err)
		}
		if !IsTransient(err) {
			t.Fatalf("dropped push not transient: %v", err)
		}
	}
	if h.chunkCount() != 0 {
		t.Fatal("dropped pushes reached the handler")
	}
	if _, err := ft.PushChunks(1, 2, KindRebalance, chunks); err != nil {
		t.Fatalf("push after faults disarmed: %v", err)
	}
	if got := ft.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestFaultTransportTruncateOverTCP(t *testing.T) {
	s := testSchema("A")
	inner := NewTCP(TCPOptions{})
	ft := NewFaultTransport(inner)
	defer ft.Close()
	h := newMemHandler(s)
	if err := ft.Serve(2, h); err != nil {
		t.Fatal(err)
	}
	ft.TruncateNextPushes(1)
	chunks := []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 20)}
	_, err := ft.PushChunks(1, 2, KindRebalance, chunks)
	if err == nil {
		t.Fatal("truncated push succeeded")
	}
	if !errors.Is(err, ErrInjected) || !IsTransient(err) {
		t.Fatalf("truncated push error = %v, want transient ErrInjected", err)
	}
	if h.chunkCount() != 0 {
		t.Fatal("torn stream committed chunks")
	}
	if _, err := ft.PushChunks(1, 2, KindRebalance, chunks); err != nil {
		t.Fatalf("retry after truncation: %v", err)
	}
	if h.chunkCount() != 1 {
		t.Fatal("retry did not commit")
	}
}

func TestFaultTransportDropRateDeterministic(t *testing.T) {
	s := testSchema("A")
	run := func() (failed int) {
		ft := NewFaultTransport(nil)
		h := newMemHandler(s)
		if err := ft.Serve(2, h); err != nil {
			t.Fatal(err)
		}
		ft.SetDropRate(0.5, 42)
		for i := 0; i < 40; i++ {
			if _, err := ft.PushChunks(1, 2, KindIngest,
				[]*array.Chunk{fillChunk(t, s, array.ChunkCoord{int64(i), 0}, 2)}); err != nil {
				failed++
			}
		}
		return failed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different fault sequences: %d vs %d", a, b)
	}
	if a == 0 || a == 40 {
		t.Fatalf("drop rate 0.5 failed %d/40 pushes — knob not effective", a)
	}
}

func TestFaultTransportLatency(t *testing.T) {
	s := testSchema("A")
	ft := NewFaultTransport(nil)
	h := newMemHandler(s)
	if err := ft.Serve(2, h); err != nil {
		t.Fatal(err)
	}
	ft.SetLatency(20 * time.Millisecond)
	start := time.Now()
	if _, err := ft.PushChunks(1, 2, KindIngest, []*array.Chunk{fillChunk(t, s, array.ChunkCoord{0, 0}, 2)}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("push completed in %v, latency knob not applied", d)
	}
}

// TestIsTransientClassification pins the retry policy's decision table.
func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"remote", &RemoteError{Msg: "refused"}, false},
		{"corrupt", fmt.Errorf("push: %w", ErrCorruptStream), true},
		{"marked", markTransient(errors.New("dial refused")), true},
		{"wrapped marked", fmt.Errorf("attempt 2: %w", markTransient(errors.New("reset"))), true},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBatchKindString(t *testing.T) {
	for kind, want := range map[BatchKind]string{
		KindIngest:    "ingest",
		KindRebalance: "rebalance",
		KindReplica:   "replica",
		BatchKind(9):  "kind(9)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("BatchKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}
