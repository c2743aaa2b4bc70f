package sfc

import "testing"

func BenchmarkIndex2D(b *testing.B) {
	c := mustCurve(2, 10)
	coords := []uint64{513, 740}
	for i := 0; i < b.N; i++ {
		if _, err := c.Index(coords); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndex3D(b *testing.B) {
	c := mustCurve(3, 10)
	coords := []uint64{513, 740, 12}
	for i := 0; i < b.N; i++ {
		if _, err := c.Index(coords); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoords2D(b *testing.B) {
	c := mustCurve(2, 10)
	for i := 0; i < b.N; i++ {
		if _, err := c.coords(uint64(i) % c.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRectRank(b *testing.B) {
	r := mustRectOrder([]int64{29, 23})
	coords := []int64{17, 11}
	for i := 0; i < b.N; i++ {
		if _, err := r.Rank(coords); err != nil {
			b.Fatal(err)
		}
	}
}
