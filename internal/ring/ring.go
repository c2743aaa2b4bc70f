// Package ring implements Karger-style consistent hashing (the paper's
// reference [24]) with virtual nodes. Keys and nodes hash onto the
// circumference of a circle; a key is owned by the first node clockwise
// from its position. Adding a node steals only the arc segments that now
// fall to it — the property that makes the Consistent Hash partitioner
// incremental: chunks move only from a few predecessors to the new node.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash circle mapping hashed keys to integer node IDs.
// The zero value is not usable; construct with New. Ring is not safe for
// concurrent mutation.
type Ring struct {
	replicas int
	points   []point // sorted by hash
	nodes    map[int]bool
}

type point struct {
	hash uint64
	node int
}

// New returns an empty ring that places each node at `replicas` positions
// (virtual nodes). More replicas → smoother balance, larger table.
func New(replicas int) (*Ring, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("ring: replicas must be >= 1, got %d", replicas)
	}
	return &Ring{replicas: replicas, nodes: make(map[int]bool)}, nil
}

// MustNew is New that panics on error.
func MustNew(replicas int) *Ring {
	r, err := New(replicas)
	if err != nil {
		panic(err)
	}
	return r
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer; it scatters the correlated FNV values
// that near-identical keys (node-0-replica-1, node-0-replica-2, …) produce,
// so virtual nodes land uniformly around the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add places a node (at its virtual positions) on the ring. Adding an
// existing node is an error.
func (r *Ring) Add(node int) error {
	if r.nodes[node] {
		return fmt.Errorf("ring: node %d already present", node)
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		h := hashKey(fmt.Sprintf("node-%d-replica-%d", node, i))
		r.points = append(r.points, point{hash: h, node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return nil
}

// OwnerHash returns the node owning a pre-hashed position on the circle:
// the first virtual position at or clockwise after h. Callers hash their
// keys themselves, allocation-free; h must be well dispersed (already
// mixed), as it is used as the circle position directly. It panics on an
// empty ring.
func (r *Ring) OwnerHash(h uint64) int {
	if len(r.points) == 0 {
		panic("ring: OwnerHash on empty ring")
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].node
}
