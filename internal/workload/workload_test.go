package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(8)
	same := 0
	a = NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(123)
	const buckets = 64
	counts := make([]int, buckets)
	const n = buckets * 1000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d count %d far from 1000", b, c)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestOpGenFractions(t *testing.T) {
	cases := []struct {
		mix  Mix
		insL float64
		insH float64
	}{
		{InsertOnly, 0.99, 1.0},
		{Mix5050, 0.47, 0.53},
		{Mix1090, 0.08, 0.12},
		{LookupOnly, 0, 0.01},
		{Mix{InsertFrac: 0.3, DeleteFrac: 0.2}, 0.27, 0.33},
	}
	for _, c := range cases {
		g := NewOpGen(c.mix, 42)
		const n = 100000
		ins, del := 0, 0
		for i := 0; i < n; i++ {
			switch g.Next() {
			case OpInsert:
				ins++
			case OpDelete:
				del++
			}
		}
		frac := float64(ins) / n
		if frac < c.insL || frac > c.insH {
			t.Fatalf("%s: insert fraction %.3f outside [%v,%v]", c.mix.Name(), frac, c.insL, c.insH)
		}
		if c.mix.DeleteFrac > 0 {
			dfrac := float64(del) / n
			if math.Abs(dfrac-c.mix.DeleteFrac) > 0.03 {
				t.Fatalf("delete fraction %.3f want ~%v", dfrac, c.mix.DeleteFrac)
			}
		}
	}
}

func TestMixNames(t *testing.T) {
	if InsertOnly.Name() != "100% Insert" || Mix5050.Name() != "50% Insert" ||
		Mix1090.Name() != "10% Insert" || LookupOnly.Name() != "100% Lookup" ||
		(Mix{InsertFrac: 0.3}).Name() != "custom mix" {
		t.Fatal("mix names wrong")
	}
}

func TestUniformKeysUniqueAndDisjoint(t *testing.T) {
	seen := map[uint64]bool{}
	for th := 0; th < 4; th++ {
		g := NewUniformKeys(9, th)
		for i := 0; i < 20000; i++ {
			k := g.NextKey()
			if seen[k] {
				t.Fatalf("duplicate key %#x (thread %d)", k, th)
			}
			seen[k] = true
		}
	}
}

func TestUniformKeysExistingHitsInsertedSet(t *testing.T) {
	g := NewUniformKeys(11, 2)
	inserted := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		inserted[g.NextKey()] = true
	}
	for i := 0; i < 5000; i++ {
		if !inserted[g.ExistingKey()] {
			t.Fatal("ExistingKey returned a never-inserted key")
		}
	}
}

func TestSequentialKeys(t *testing.T) {
	g := NewSequentialKeys(100)
	for i := uint64(0); i < 10; i++ {
		if k := g.NextKey(); k != 100+i {
			t.Fatalf("NextKey = %d, want %d", k, 100+i)
		}
	}
	for i := 0; i < 100; i++ {
		k := g.ExistingKey()
		if k < 100 || k >= 110 {
			t.Fatalf("ExistingKey = %d outside [100,110)", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipfKeys(3, 10000, 0.99)
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.NextKey()]++
	}
	// The most popular key should take a few percent of the stream, and
	// the distinct-key count must be far below n (heavy skew).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.02 {
		t.Fatalf("top key only %.4f of stream; not skewed", float64(max)/n)
	}
	if len(counts) > n/4 {
		t.Fatalf("%d distinct keys in %d draws; not skewed", len(counts), n)
	}
	// Past 2^20 keys the normaliser's tail is an integral; it must stay
	// within 0.1% of the direct sum.
	const big = 1<<20 + 1<<19
	exact := 0.0
	for i := 1; i <= big; i++ {
		exact += 1 / math.Pow(float64(i), 0.99)
	}
	if got := NewZipfKeys(3, big, 0.99).zetan; math.Abs(got-exact) > exact/1000 {
		t.Fatalf("zeta(%d, 0.99) = %v, direct sum %v", big, got, exact)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipfKeys(1, 0, 0.5) },
		func() { NewZipfKeys(1, 10, 0) },
		func() { NewZipfKeys(1, 10, 1) },
		func() { NewZipfSKeys(1, 0, 1.2) },
		func() { NewZipfSKeys(1, 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRandQuickNoShortCycles(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRand(seed)
		first := r.Next()
		for i := 0; i < 1000; i++ {
			if r.Next() == first && i > 0 {
				// A repeat of the first output this early would suggest a
				// tiny cycle; xorshift128+ has period 2^128-1.
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
