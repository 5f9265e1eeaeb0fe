package obs

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			tk.Touch([]byte(fmt.Sprintf("k%d", i)))
		}
	}
	items := tk.Items()
	if len(items) != 5 {
		t.Fatalf("len(Items) = %d, want 5", len(items))
	}
	for i, it := range items {
		wantKey := fmt.Sprintf("k%d", 4-i)
		wantCount := uint64(5 - i)
		if it.Key != wantKey || it.Count != wantCount || it.Err != 0 {
			t.Errorf("Items[%d] = %+v, want {%s %d 0}", i, it, wantKey, wantCount)
		}
	}
}

func TestTopKHeavyHittersSurviveChurn(t *testing.T) {
	// 4 heavy keys at ~1000 touches each through a k=16 sketch, drowned in
	// 2000 one-off keys. Space-saving guarantees keys with frequency above
	// N/k stay tracked: N = 6000, N/k = 375 << 1000.
	tk := NewTopK(16)
	for round := 0; round < 1000; round++ {
		for h := 0; h < 4; h++ {
			tk.Touch([]byte(fmt.Sprintf("hot%d", h)))
		}
		for j := 0; j < 2; j++ {
			tk.Touch([]byte(fmt.Sprintf("cold%d-%d", round, j)))
		}
	}
	items := tk.Items()
	if len(items) != 16 {
		t.Fatalf("len(Items) = %d, want 16 (sketch at capacity)", len(items))
	}
	top := map[string]TopKItem{}
	for _, it := range items[:4] {
		top[it.Key] = it
	}
	for h := 0; h < 4; h++ {
		key := fmt.Sprintf("hot%d", h)
		it, ok := top[key]
		if !ok {
			t.Fatalf("heavy hitter %s missing from top 4: %+v", key, items[:8])
		}
		// Count overestimates by at most Err; the true count is 1000.
		if it.Count < 1000 || it.Count-it.Err > 1000 {
			t.Errorf("%s: count %d err %d, want count >= 1000 and count-err <= 1000", key, it.Count, it.Err)
		}
	}
}

func TestTopKEvictionInheritsMinCount(t *testing.T) {
	tk := NewTopK(2)
	tk.Touch([]byte("a"))
	tk.Touch([]byte("a"))
	tk.Touch([]byte("b"))
	tk.Touch([]byte("c")) // evicts b (count 1); c inherits count 1 -> 2, err 1
	items := tk.Items()
	if len(items) != 2 {
		t.Fatalf("len(Items) = %d, want 2", len(items))
	}
	if items[0].Key != "a" && items[1].Key != "a" {
		t.Fatalf("a evicted: %+v", items)
	}
	for _, it := range items {
		if it.Key == "c" && (it.Count != 2 || it.Err != 1) {
			t.Errorf("c = %+v, want count 2 err 1", it)
		}
	}
}

func TestTopKTrackedTouchDoesNotAllocate(t *testing.T) {
	tk := NewTopK(4)
	key := []byte("hot")
	tk.Touch(key)
	allocs := testing.AllocsPerRun(200, func() { tk.Touch(key) })
	if allocs != 0 {
		t.Errorf("tracked-key Touch allocates %.1f per op, want 0", allocs)
	}
}

func TestMergeTopKSumsAcrossSketches(t *testing.T) {
	a, b := NewTopK(4), NewTopK(4)
	for i := 0; i < 3; i++ {
		a.Touch([]byte("x"))
		b.Touch([]byte("x"))
	}
	a.Touch([]byte("y"))
	b.Touch([]byte("z"))
	merged := MergeTopK([]*TopK{a, b})
	if len(merged) != 3 {
		t.Fatalf("len(merged) = %d, want 3", len(merged))
	}
	if merged[0].Key != "x" || merged[0].Count != 6 {
		t.Errorf("merged[0] = %+v, want x with count 6", merged[0])
	}
	// Deterministic tie-break: y before z at count 1.
	if merged[1].Key != "y" || merged[2].Key != "z" {
		t.Errorf("tie order = %s,%s, want y,z", merged[1].Key, merged[2].Key)
	}
}

// TestTopKEvictingTouchAllocatesOnlyTheKey: on a full sketch, a new key
// takes over the evicted entry, so the one allocation is its string.
func TestTopKEvictingTouchAllocatesOnlyTheKey(t *testing.T) {
	const k, runs = 48, 400
	tk := NewTopK(k)
	keys := make([][]byte, k+runs+1)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	for _, key := range keys[:k] {
		tk.Touch(key)
	}
	next := k
	allocs := testing.AllocsPerRun(runs, func() {
		tk.Touch(keys[next])
		next++
	})
	if allocs > 1 {
		t.Errorf("evicting Touch allocates %.1f per op, want <= 1", allocs)
	}
	if got := len(tk.Items()); got != k {
		t.Fatalf("len(Items) = %d after evictions, want %d", got, k)
	}
}

// TestTopKNeverTouchedIsEmpty: a sketch no request reached has no map, and
// reads as empty on its own and in a merge.
func TestTopKNeverTouchedIsEmpty(t *testing.T) {
	idle := NewTopK(4)
	if items := idle.Items(); len(items) != 0 {
		t.Fatalf("never-touched Items = %+v, want empty", items)
	}
	if merged := MergeTopK([]*TopK{idle, NewTopK(4)}); len(merged) != 0 {
		t.Fatalf("merge of never-touched sketches = %+v, want empty", merged)
	}
	busy := NewTopK(4)
	busy.Touch([]byte("x"))
	merged := MergeTopK([]*TopK{idle, busy, NewTopK(4)})
	if len(merged) != 1 || merged[0] != (TopKItem{Key: "x", Count: 1}) {
		t.Fatalf("merge = %+v, want only x with count 1", merged)
	}
}

// BenchmarkTopKTouch measures Touch on a full k=48 sketch (the server's
// hotSketchK): uniform keys, where nearly every touch misses and evicts,
// and a skewed stream, where most touches hit a tracked key.
func BenchmarkTopKTouch(b *testing.B) {
	const k, universe = 48, 200_000
	keys := make([][]byte, universe)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%011d", i)) // 16 bytes
	}
	rng := rand.New(rand.NewPCG(1, 2))
	zipf := rand.NewZipf(rand.New(rand.NewPCG(3, 4)), 1.2, 1, universe-1)
	for _, s := range []struct {
		name string
		next func() int
	}{
		{"uniform", func() int { return rng.IntN(universe) }},
		{"zipf", func() int { return int(zipf.Uint64()) }},
	} {
		b.Run(s.name, func(b *testing.B) {
			order := make([]int, 1<<16)
			for i := range order {
				order[i] = s.next()
			}
			tk := NewTopK(k)
			for _, i := range order[:k*4] {
				tk.Touch(keys[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk.Touch(keys[order[i&(len(order)-1)]])
			}
		})
	}
}
