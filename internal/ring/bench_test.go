package ring

import (
	"fmt"
	"testing"
)

func BenchmarkOwner(b *testing.B) {
	r := MustNew(128)
	for n := 0; n < 8; n++ {
		if err := r.Add(n); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("chunk-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = owner(r, keys[i%len(keys)])
	}
}

func BenchmarkAddNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MustNew(128)
		for n := 0; n < 8; n++ {
			if err := r.Add(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}
