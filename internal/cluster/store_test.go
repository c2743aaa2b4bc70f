package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/partition"
)

func lookupFor(s *array.Schema) func(string) (*array.Schema, bool) {
	return func(name string) (*array.Schema, bool) {
		if name == s.Name {
			return s, true
		}
		return nil, false
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	chunks := makeChunks(t, 5, 8, 11)
	for _, ch := range chunks {
		if err := s.Put(ch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(chunks[0]); err == nil {
		t.Error("duplicate Put should fail")
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	var want int64
	for _, ch := range chunks {
		want += ch.SizeBytes()
	}
	if s.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), want)
	}
	refs := s.Refs()
	for i := 1; i < len(refs); i++ {
		prev, cur := refs[i-1], refs[i]
		inOrder := prev.Array < cur.Array ||
			(prev.Array == cur.Array && prev.Coords.Less(cur.Coords))
		if !inOrder {
			t.Error("Refs must be in canonical (array, coordinate) order")
		}
	}
	got, err := s.Take(chunks[2].Ref())
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref().Key() != chunks[2].Ref().Key() {
		t.Error("Take returned the wrong chunk")
	}
	if _, err := s.Take(chunks[2].Ref()); err == nil {
		t.Error("double Take should fail")
	}
	if _, ok := s.Get(chunks[2].Ref()); ok {
		t.Error("taken chunk should be gone")
	}
}

func TestDiskStoreWriteThroughAndReopen(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	s, err := NewDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	chunks := makeChunks(t, 6, 10, 13)
	for _, ch := range chunks {
		if err := s.Put(ch); err != nil {
			t.Fatal(err)
		}
	}
	// One file per chunk on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("%d files on disk, want 6", len(entries))
	}
	// Take removes the mirror.
	if _, err := s.Take(chunks[0].Ref()); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 5 {
		t.Fatalf("%d files after Take, want 5", len(entries))
	}
	// Reopen recovers the surviving contents exactly.
	re, err := OpenDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 5 {
		t.Fatalf("reopened store has %d chunks, want 5", re.Len())
	}
	if re.Bytes() != s.Bytes() {
		t.Errorf("reopened bytes %d != live bytes %d", re.Bytes(), s.Bytes())
	}
	for _, ref := range s.Refs() {
		a, _ := s.Get(ref)
		b, ok := re.Get(ref)
		if !ok {
			t.Fatalf("chunk %s missing after reopen", ref)
		}
		if a.Len() != b.Len() || a.SizeBytes() != b.SizeBytes() {
			t.Fatalf("chunk %s differs after reopen", ref)
		}
	}
}

func TestOpenDiskStoreRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	s, err := NewDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	chunks := makeChunks(t, 2, 6, 17)
	for _, ch := range chunks {
		if err := s.Put(ch); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir, lookupFor(schema)); err == nil {
		t.Error("corrupt chunk file must fail recovery loudly")
	}
	// Unknown array names fail too.
	other := mustSchema("Other",
		[]array.Attribute{{Name: "v", Type: array.Float64}},
		[]array.Dimension{{Name: "x", Start: 0, End: 9, ChunkInterval: 2}})
	if _, err := OpenDiskStore(dir, lookupFor(other)); err == nil {
		t.Error("unknown array must fail recovery")
	}
	if _, err := NewDiskStore(dir, nil); err == nil {
		t.Error("nil lookup must be rejected")
	}
}

func TestClusterWithStorageDirPersistsChunks(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{
		InitialNodes: 2,
		NodeCapacity: 10 << 20,
		StorageDir:   dir,
		Partitioner: func(initial []partition.NodeID) (partition.Partitioner, error) {
			return partition.NewConsistentHash(initial, 32), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := testSchema()
	if err := c.DefineArray(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(makeChunks(t, 30, 8, 19)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-node directories mirror exactly what each node serves, and a
	// migrated chunk's file moved with it.
	totalFiles := 0
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		st, err := OpenDiskStore(filepath.Join(dir, "node-"+itoa(int(id))), lookupFor(schema))
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != node.NumChunks() {
			t.Errorf("node %d: %d files, %d chunks in memory", id, st.Len(), node.NumChunks())
		}
		totalFiles += st.Len()
	}
	if totalFiles != c.NumChunks() {
		t.Errorf("disk holds %d chunks, catalog %d", totalFiles, c.NumChunks())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestDiskStoreFileNamesUnchanged pins the exact on-disk file names (the
// escaped string key format) so the packed-key refactor can never change
// what a store directory looks like: stores written before the refactor
// must reopen byte-for-byte after it.
func TestDiskStoreFileNamesUnchanged(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	s, err := NewDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []array.ChunkCoord{{0, 0}, {3, 12}, {15, 7}} {
		ch := array.NewChunk(schema, cc)
		origin := schema.ChunkOrigin(cc)
		ch.AppendCell(origin, []array.CellValue{{Float: 1.0}})
		if err := s.Put(ch); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{
		"A-0_0.chunk":  true,
		"A-3_12.chunk": true,
		"A-15_7.chunk": true,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("%d files on disk, want %d", len(entries), len(want))
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected file name %q", e.Name())
		}
	}
	// A directory with exactly these legacy names reopens cleanly.
	re, err := OpenDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(want) {
		t.Fatalf("reopened %d chunks, want %d", re.Len(), len(want))
	}
	// And the wire bytes round-trip identically through the reopened store.
	for _, ref := range s.Refs() {
		a, _ := s.Get(ref)
		b, _ := re.Get(ref)
		wa, err := array.EncodeChunk(a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := array.EncodeChunk(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa, wb) {
			t.Errorf("chunk %s wire bytes differ after reopen", ref)
		}
	}
}

func TestDiskStorePutCrashSafety(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema()
	s, err := NewDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	chunks := makeChunks(t, 4, 8, 17)
	for _, ch := range chunks {
		if err := s.Put(ch); err != nil {
			t.Fatal(err)
		}
	}
	// Put commits by rename: a completed store never leaves .tmp litter
	// and every .chunk file decodes whole.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != chunkFileExt {
			t.Errorf("unexpected file %q after committed puts", e.Name())
		}
	}

	// Simulate a crash mid-write: a half-written temp file next to the
	// committed mirrors, including one shadowing a committed chunk.
	for _, name := range []string{"A-9_9.chunk.tmp", "A-0_0.chunk.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenDiskStore(dir, lookupFor(schema))
	if err != nil {
		t.Fatalf("reopen over stale temp files: %v", err)
	}
	if re.Len() != len(chunks) {
		t.Fatalf("reopened %d chunks, want %d", re.Len(), len(chunks))
	}
	// The sweep removed the torn writes; the committed data is untouched.
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(chunks) {
		t.Fatalf("%d files after sweep, want %d", len(entries), len(chunks))
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != chunkFileExt {
			t.Errorf("stale file %q survived the sweep", e.Name())
		}
	}
	for _, ch := range chunks {
		got, ok := re.Get(ch.Ref())
		if !ok {
			t.Fatalf("chunk %s lost to the sweep", ch.Ref())
		}
		wa, err := array.EncodeChunk(ch)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := array.EncodeChunk(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa, wb) {
			t.Errorf("chunk %s bytes differ after crash recovery", ch.Ref())
		}
	}
}
