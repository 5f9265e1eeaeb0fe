package prefetch

import "testing"

// TestLineReadsNothing prefetches every word of an array, the first and
// the last included, and checks that no word changed: a prefetch is a hint
// about a line, never a write to it.
func TestLineReadsNothing(t *testing.T) {
	a := make([]uint64, 64)
	for i := range a {
		a[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for i := range a {
		Line(&a[i])
	}
	for i := range a {
		if want := uint64(i) * 0x9E3779B97F4A7C15; a[i] != want {
			t.Fatalf("word %d = %#x after Line, want %#x", i, a[i], want)
		}
	}
}

// BenchmarkLine is the cost of one prefetch of a line already in the L1.
func BenchmarkLine(b *testing.B) {
	var w uint64
	for range b.N {
		Line(&w)
	}
}
