package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/array"
)

// ChunkStore is a node's local chunk storage. MemStore keeps payloads in
// memory only; DiskStore additionally writes every chunk through to disk
// in the array wire format, so a node's contents survive process restarts
// and can be re-indexed with OpenDiskStore.
type ChunkStore interface {
	// Put stores a chunk. Storing a duplicate identity is an error.
	Put(*array.Chunk) error
	// Take removes and returns a chunk.
	Take(array.ChunkRef) (*array.Chunk, error)
	// Get returns a resident chunk without removing it.
	Get(array.ChunkRef) (*array.Chunk, bool)
	// Refs returns the stored identities in canonical order.
	Refs() []array.ChunkRef
	// Bytes returns the summed payload footprint.
	Bytes() int64
	// Len returns the number of stored chunks.
	Len() int
}

// MemStore is the default in-memory chunk store, keyed by the packed chunk
// identity so lookups and inserts allocate nothing. A mutex guards the map
// and the byte accounting: concurrent ingest batches and parallel rebalance
// receivers may target the same node. The zero value is not usable;
// construct with NewMemStore.
type MemStore struct {
	mu     sync.Mutex
	chunks map[array.ChunkKey]*array.Chunk
	bytes  int64
}

// NewMemStore returns an empty in-memory store, presized for a typical
// ingest burst so the first batches don't rehash the chunk map mid-write.
func NewMemStore() *MemStore {
	return &MemStore{chunks: make(map[array.ChunkKey]*array.Chunk, 128)}
}

// Put implements ChunkStore.
func (s *MemStore) Put(c *array.Chunk) error {
	key := c.Key()
	size := c.SizeBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.chunks[key]; dup {
		return fmt.Errorf("cluster: store already holds chunk %s", c.Ref())
	}
	s.chunks[key] = c
	s.bytes += size
	return nil
}

// Take implements ChunkStore.
func (s *MemStore) Take(ref array.ChunkRef) (*array.Chunk, error) {
	key := ref.Packed()
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[key]
	if !ok {
		return nil, fmt.Errorf("cluster: store does not hold chunk %s", ref)
	}
	delete(s.chunks, key)
	s.bytes -= c.SizeBytes()
	return c, nil
}

// Get implements ChunkStore.
func (s *MemStore) Get(ref array.ChunkRef) (*array.Chunk, bool) {
	key := ref.Packed()
	s.mu.Lock()
	c, ok := s.chunks[key]
	s.mu.Unlock()
	return c, ok
}

// Refs implements ChunkStore.
func (s *MemStore) Refs() []array.ChunkRef {
	s.mu.Lock()
	keys := make([]array.ChunkKey, 0, len(s.chunks))
	for k := range s.chunks {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]array.ChunkRef, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.Ref())
	}
	return out
}

// Bytes implements ChunkStore.
func (s *MemStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len implements ChunkStore.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chunks)
}

// fileEscaper maps chunk-key characters that are unsafe in file names.
var (
	fileEscaper   = strings.NewReplacer(":", "-", "/", "_")
	fileUnescaper = strings.NewReplacer("-", ":", "_", "/")
)

const (
	chunkFileExt = ".chunk"
	// tmpFileSuffix marks in-flight mirror writes; DiskStore.Put renames
	// them into place atomically and OpenDiskStore sweeps any left by a
	// crash.
	tmpFileSuffix = ".tmp"
)

// DiskStore is a write-through persistent store: chunks live in memory for
// serving and are mirrored to one file each (array wire format) under the
// store's directory. SchemaLookup resolves array names during re-indexing.
type DiskStore struct {
	mem    *MemStore
	dir    string
	lookup func(name string) (*array.Schema, bool)
}

// NewDiskStore creates (or reuses) the directory and returns an empty
// write-through store. Existing chunk files are NOT loaded; use
// OpenDiskStore to recover a previous store's contents.
func NewDiskStore(dir string, lookup func(string) (*array.Schema, bool)) (*DiskStore, error) {
	if lookup == nil {
		return nil, fmt.Errorf("cluster: DiskStore needs a schema lookup")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating store dir: %w", err)
	}
	return &DiskStore{mem: NewMemStore(), dir: dir, lookup: lookup}, nil
}

// OpenDiskStore re-indexes an existing store directory, decoding and
// verifying every chunk file. Corrupt or unparseable files are reported,
// not skipped — recovery must be loud.
func OpenDiskStore(dir string, lookup func(string) (*array.Schema, bool)) (*DiskStore, error) {
	s, err := NewDiskStore(dir, lookup)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), tmpFileSuffix) {
			// A crash mid-Put left an in-flight temp file; its chunk was
			// never committed (the rename is the commit point), so sweep it.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("cluster: sweeping stale temp file %q: %w", e.Name(), err)
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), chunkFileExt) {
			continue
		}
		key := fileUnescaper.Replace(strings.TrimSuffix(e.Name(), chunkFileExt))
		ref, err := array.ParseChunkRef(key)
		if err != nil {
			return nil, fmt.Errorf("cluster: store file %q does not name a chunk: %w", e.Name(), err)
		}
		schema, ok := lookup(ref.Array)
		if !ok {
			return nil, fmt.Errorf("cluster: store holds chunk of unknown array %q", ref.Array)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		ch, err := array.DecodeChunk(schema, data)
		if err != nil {
			return nil, fmt.Errorf("cluster: store file %q corrupt: %w", e.Name(), err)
		}
		if ch.Ref().Key() != ref.Key() {
			return nil, fmt.Errorf("cluster: store file %q holds chunk %s", e.Name(), ch.Ref())
		}
		if err := s.mem.Put(ch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *DiskStore) path(ref array.ChunkRef) string {
	return filepath.Join(s.dir, fileEscaper.Replace(ref.Key())+chunkFileExt)
}

// Put implements ChunkStore: memory first, then the disk mirror. The
// mirror write is crash-safe: the payload lands in a temp file that is
// atomically renamed into place, so a crash mid-write leaves at worst a
// .tmp file (swept by OpenDiskStore), never a truncated .chunk file that
// re-indexing would reject as corrupt.
func (s *DiskStore) Put(c *array.Chunk) error {
	if err := s.mem.Put(c); err != nil {
		return err
	}
	data, err := array.EncodeChunk(c)
	if err != nil {
		_, _ = s.mem.Take(c.Ref())
		return err
	}
	path := s.path(c.Ref())
	tmp := path + tmpFileSuffix
	err = os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		// Roll back the memory insert so state stays consistent.
		_, _ = s.mem.Take(c.Ref())
		return fmt.Errorf("cluster: persisting chunk %s: %w", c.Ref(), err)
	}
	return nil
}

// Take implements ChunkStore, removing the disk mirror too.
func (s *DiskStore) Take(ref array.ChunkRef) (*array.Chunk, error) {
	c, err := s.mem.Take(ref)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(s.path(ref)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("cluster: removing chunk file for %s: %w", ref, err)
	}
	return c, nil
}

// Get implements ChunkStore.
func (s *DiskStore) Get(ref array.ChunkRef) (*array.Chunk, bool) { return s.mem.Get(ref) }

// Refs implements ChunkStore.
func (s *DiskStore) Refs() []array.ChunkRef { return s.mem.Refs() }

// Bytes implements ChunkStore.
func (s *DiskStore) Bytes() int64 { return s.mem.Bytes() }

// Len implements ChunkStore.
func (s *DiskStore) Len() int { return s.mem.Len() }

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }
