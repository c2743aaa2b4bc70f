package ring

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("replicas=0 should fail")
	}
	if _, err := New(64); err != nil {
		t.Errorf("replicas=64: %v", err)
	}
}

// owner is the string-keyed lookup the tests use: the key's hash as the
// circle position.
func owner(r *Ring, key string) int { return r.OwnerHash(hashKey(key)) }

func TestAddRejectsDuplicate(t *testing.T) {
	r := MustNew(16)
	if err := r.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(1); err == nil {
		t.Error("duplicate Add should fail")
	}
	if len(r.nodes) != 1 || len(r.points) != 16 {
		t.Errorf("ring holds %d nodes at %d positions, want 1 at 16", len(r.nodes), len(r.points))
	}
}

func TestOwnerDeterministic(t *testing.T) {
	r := MustNew(32)
	for n := 0; n < 4; n++ {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("chunk-%d", i)
		a, b := owner(r, key), owner(r, key)
		if a != b {
			t.Fatalf("Owner(%q) unstable: %d vs %d", key, a, b)
		}
	}
}

func TestOwnerEmptyPanics(t *testing.T) {
	r := MustNew(4)
	defer func() {
		if recover() == nil {
			t.Error("OwnerHash on empty ring should panic")
		}
	}()
	r.OwnerHash(0)
}

func TestBalanceWithVirtualNodes(t *testing.T) {
	r := MustNew(128)
	const nodes = 8
	for n := 0; n < nodes; n++ {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int, nodes)
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[owner(r, fmt.Sprintf("key-%d", i))]++
	}
	for n, c := range counts {
		frac := float64(c) / keys
		if frac < 0.04 || frac > 0.25 {
			t.Errorf("node %d owns %.1f%% of keys, want near %.1f%%", n, frac*100, 100.0/nodes)
		}
	}
}

func TestIncrementalityOnAdd(t *testing.T) {
	// The consistent-hashing contract: when a node joins, keys may move
	// only TO the new node, never between preexisting nodes.
	r := MustNew(64)
	for n := 0; n < 4; n++ {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 2000
	before := make([]int, keys)
	for i := range before {
		before[i] = owner(r, fmt.Sprintf("key-%d", i))
	}
	if err := r.Add(4); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		after := owner(r, fmt.Sprintf("key-%d", i))
		if after != before[i] {
			if after != 4 {
				t.Fatalf("key-%d moved %d -> %d (not the new node)", i, before[i], after)
			}
			moved++
		}
	}
	// Roughly 1/5th of keys should move; tolerate wide variance.
	if moved == 0 || moved > keys/2 {
		t.Errorf("%d of %d keys moved to the new node; implausible", moved, keys)
	}
}

func TestOwnerAlwaysAMember(t *testing.T) {
	r := MustNew(16)
	for n := 0; n < 3; n++ {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	f := func(key string) bool {
		o := owner(r, key)
		return o >= 0 && o < 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
