package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/workload"
)

// fakePeer listens on a loopback port and runs serve on every accepted
// connection (closing it afterwards), standing in for a misbehaving or
// recording remote node. The listener closes with the test.
func fakePeer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// lengthPrefixed is a response: the status byte, then a u32-prefixed body.
func lengthPrefixed(status byte, body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32([]byte{status}, uint32(len(body))), body...)
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Golden request bytes, one per verb. The push is an empty batch from node
// 3, so its only segment is the 10-byte "ABAT" header.
var (
	goldenPushEmpty = mustHex("4e525445" + "01" + "0300000000000000" + "02" +
		"0a000000" + "54414241" + "0100" + "00000000" + "00000000")
	goldenFetch = mustHex("4e525445" + "02" + "0300000000000000" +
		"0100" + "41" + "02" + "0100000000000000" + "0200000000000000")
	goldenAnnounce = mustHex("4e525445" + "03" + "0300000000000000" +
		"0700000000000000" + "02000000" + "2200000000000000" + "2e16000000000000" +
		"0900000000000000" + "f303000000000000" + "0c00000000000000" + "0d00000000000000")
	goldenAnnouncement = Announcement{Node: 7, Health: 2, Chunks: 34, Bytes: 5678,
		Replicas: 9, ReplicaBytes: 1011, Epoch: 12, Seq: 13}
)

// TestWireGoldenRequests pins the bytes the client writes for each verb: a
// recording peer reads exactly the golden request, answers with a status,
// and the bytes must match.
func TestWireGoldenRequests(t *testing.T) {
	cases := []struct {
		name string
		want []byte
		resp []byte
		call func(tr *TCP) error
	}{
		{"push", goldenPushEmpty, []byte{statusOK}, func(tr *TCP) error {
			_, err := tr.PushChunks(3, 1, KindRebalance, nil)
			return err
		}},
		{"fetch", goldenFetch, append([]byte{statusRemote}, 0, 0, 0, 0), func(tr *TCP) error {
			_, _, err := tr.FetchChunk(3, 1, array.ChunkRef{Array: "A", Coords: array.ChunkCoord{1, 2}})
			var re *RemoteError
			if errors.As(err, &re) {
				return nil
			}
			return fmt.Errorf("fetch answered by a refusal returned %v", err)
		}},
		{"announce", goldenAnnounce, []byte{statusOK}, func(tr *TCP) error {
			return tr.Announce(3, 1, goldenAnnouncement)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan []byte, 1)
			addr := fakePeer(t, func(conn net.Conn) {
				b := make([]byte, len(tc.want))
				n, _ := io.ReadFull(conn, b)
				got <- b[:n]
				_, _ = conn.Write(tc.resp)
			})
			tr := NewTCP(TCPOptions{})
			defer tr.Close()
			tr.AddRemote(1, addr)
			tr.SetSchemaLookup(func(name string) (*array.Schema, bool) { return testSchema(name), true })
			if err := tc.call(tr); err != nil {
				t.Fatal(err)
			}
			if b := <-got; !bytes.Equal(b, tc.want) {
				t.Fatalf("request bytes\n got %x\nwant %x", b, tc.want)
			}
		})
	}
}

// TestWireGoldenResponses pins the bytes a served node answers with: ok,
// a handler refusal, a corrupt-stream verdict and a fetched chunk, each
// requested with raw golden request bytes.
func TestWireGoldenResponses(t *testing.T) {
	s := testSchema("A")
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	h := newMemHandler(s)
	if err := tr.Serve(1, h); err != nil {
		t.Fatal(err)
	}
	ch := fillChunk(t, s, array.ChunkCoord{1, 2}, 3)
	if _, err := tr.PushChunks(3, 1, KindIngest, []*array.Chunk{ch}); err != nil {
		t.Fatal(err)
	}
	payload, err := array.EncodeChunk(ch)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tr.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	exchange := func(name string, req, want []byte) {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("%s: reading the response: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s response\n got %x\nwant %x", name, got, want)
		}
	}

	exchange("announce ok", goldenAnnounce, []byte{statusOK})
	exchange("push ok", goldenPushEmpty, []byte{statusOK})
	h.setFailNext(errors.New("store full"))
	exchange("push refused", goldenPushEmpty, mustHex("01"+"0a000000"+hex.EncodeToString([]byte("store full"))))
	h.setFailNext(fmt.Errorf("torn: %w", ErrCorruptStream))
	exchange("push corrupt", goldenPushEmpty, lengthPrefixed(statusCorrupt, []byte("torn: "+ErrCorruptStream.Error())))
	if len(payload) != 103 {
		t.Errorf("fetched payload is %d bytes, want 103", len(payload))
	}
	exchange("fetch ok", goldenFetch, lengthPrefixed(statusOK, payload))
	h.mu.Lock()
	clear(h.chunks)
	h.mu.Unlock()
	exchange("fetch refused", goldenFetch, lengthPrefixed(statusRemote, []byte(fmt.Sprintf("chunk %s not resident", ch.Ref()))))
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.announced) != 1 || h.announced[0] != goldenAnnouncement {
		t.Fatalf("announce decoded as %+v, want %+v", h.announced, goldenAnnouncement)
	}
}

// TestTCPPushMODISBatchBytes pins the whole push of one MODIS batch: its
// length and sha256, every segment within 32 KiB, and the segment
// bodies concatenating to exactly the batch's EncodeChunkBatch bytes.
func TestTCPPushMODISBatchBytes(t *testing.T) {
	gen, err := workload.NewMODIS(workload.MODISConfig{Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := gen.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := array.EncodeChunkBatch(chunks)
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		stream bytes.Buffer
		bodies []byte
		maxSeg int
		err    error
	}
	got := make(chan *record, 1)
	addr := fakePeer(t, func(conn net.Conn) {
		rec := &record{}
		r := io.TeeReader(conn, &rec.stream)
		hdr := make([]byte, 14)
		if _, rec.err = io.ReadFull(r, hdr); rec.err == nil {
			for {
				var n [4]byte
				if _, rec.err = io.ReadFull(r, n[:]); rec.err != nil {
					break
				}
				size := int(binary.LittleEndian.Uint32(n[:]))
				if size == 0 {
					break
				}
				rec.maxSeg = max(rec.maxSeg, size)
				body := make([]byte, size)
				if _, rec.err = io.ReadFull(r, body); rec.err != nil {
					break
				}
				rec.bodies = append(rec.bodies, body...)
			}
		}
		got <- rec
		_, _ = conn.Write([]byte{statusOK})
	})
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	tr.AddRemote(2, addr)
	wire, err := tr.PushChunks(1, 2, KindIngest, chunks)
	if err != nil {
		t.Fatal(err)
	}
	rec := <-got
	if rec.err != nil {
		t.Fatalf("recording peer: %v", rec.err)
	}
	if !bytes.Equal(rec.bodies, batch) {
		t.Fatal("segment bodies differ from EncodeChunkBatch")
	}
	if rec.maxSeg > 32<<10 {
		t.Fatalf("largest segment is %d bytes, want at most 32 KiB", rec.maxSeg)
	}
	if wire != int64(rec.stream.Len()) {
		t.Fatalf("push reported %d wire bytes, peer read %d", wire, rec.stream.Len())
	}
	sum := sha256.Sum256(rec.stream.Bytes())
	const wantLen, wantSum = 753632, "86242605f581118f2be14b3629761e0b07de3bfc5016845fb4f65299886be537"
	if rec.stream.Len() != wantLen || hex.EncodeToString(sum[:]) != wantSum {
		t.Fatalf("push of %d chunks is %d bytes with sha256 %x, want %d bytes with %s",
			len(chunks), rec.stream.Len(), sum, wantLen, wantSum)
	}
}

// TestTCPLyingLengthPrefix pins the bound on peer-chosen sizes: a peer
// that announces a 4 GiB response body and hangs up costs the client a
// transient error, not the allocation its length prefix asked for.
func TestTCPLyingLengthPrefix(t *testing.T) {
	lie := []byte{0xff, 0xff, 0xff, 0xff}
	cases := []struct {
		name string
		req  []byte
		resp []byte
		call func(tr *TCP) error
	}{
		{"fetch payload", goldenFetch, append([]byte{statusOK}, lie...), func(tr *TCP) error {
			_, _, err := tr.FetchChunk(3, 1, array.ChunkRef{Array: "A", Coords: array.ChunkCoord{1, 2}})
			return err
		}},
		{"error message", goldenAnnounce, append([]byte{statusRemote}, lie...), func(tr *TCP) error {
			return tr.Announce(3, 1, goldenAnnouncement)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakePeer(t, func(conn net.Conn) {
				if _, err := io.ReadFull(conn, make([]byte, len(tc.req))); err == nil {
					_, _ = conn.Write(tc.resp)
				}
			})
			tr := NewTCP(TCPOptions{})
			defer tr.Close()
			tr.AddRemote(1, addr)
			tr.SetSchemaLookup(func(name string) (*array.Schema, bool) { return testSchema(name), true })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.call(tr)
			runtime.ReadMemStats(&after)
			if err == nil || !IsTransient(err) {
				t.Fatalf("short body answered with %v, want a transient error", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("a 4 GiB length prefix allocated %d bytes, want under 1 MiB", grew)
			}
		})
	}
}

// TestTCPPushLeavesNoGoroutine pins the encoder's lifetime: whether the
// push succeeds, is refused by the remote handler or loses its connection
// mid-stream, its encoder goroutine exits with it.
func TestTCPPushLeavesNoGoroutine(t *testing.T) {
	s := testSchema("A")
	var chunks []*array.Chunk
	for i := int64(0); i < 100; i++ {
		for j := int64(0); j < 30; j++ {
			chunks = append(chunks, fillChunk(t, s, array.ChunkCoord{i, j}, 25))
		}
	}
	tr := NewTCP(TCPOptions{})
	defer tr.Close()
	h := newMemHandler(s)
	if err := tr.Serve(2, h); err != nil {
		t.Fatal(err)
	}
	tr.AddRemote(3, fakePeer(t, func(conn net.Conn) {
		_, _ = io.ReadFull(conn, make([]byte, 1<<10)) // then hang up mid-stream
	}))
	// exited waits for every encoder goroutine to finish: one that has
	// closed its done channel may still be unwinding for a moment, but one
	// blocked for good fails the test.
	exited := func(push string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			buf := make([]byte, 1<<20)
			if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "transport.writeSegments") {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("an encoder goroutine outlived a %s", push)
			}
		}
	}

	if _, err := tr.PushChunks(1, 2, KindIngest, chunks); err != nil {
		t.Fatalf("push: %v", err)
	}
	exited("successful push")
	h.setFailNext(errors.New("store full"))
	if _, err := tr.PushChunks(1, 2, KindIngest, chunks); err == nil || IsTransient(err) {
		t.Fatalf("refused push returned %v, want the remote verdict", err)
	}
	exited("refused push")
	if _, err := tr.PushChunks(1, 3, KindIngest, chunks); err == nil || !IsTransient(err) {
		t.Fatalf("push over a cut connection returned %v, want a transient error", err)
	}
	exited("push that lost its connection")
}
