package generic

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strings"
	"testing"
)

// TestBytesHashEquivalence guards the identity GetBytes is built on: a
// string-keyed table hashes key s exactly as maphash.Bytes hashes its
// bytes, at every length — the empty key, short keys, and keys past
// maphash's 128-byte block, where Bytes and String hash block by block
// and maphash.Comparable, which Table.hash used to call for every key
// type, does not: a 129-byte key written through Upsert was invisible to
// GetBytes (a cuckood SET acknowledged, every GET of it a MISS).
func TestBytesHashEquivalence(t *testing.T) {
	tab := MustNew[string, int](Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		n := i % 700 // 0 … 699: five blocks and change
		b := make([]byte, n)
		rng.Read(b)
		if tab.hash(string(b)) != maphash.Bytes(tab.seed, b) {
			t.Fatalf("a %d-byte string key does not hash as its bytes do", n)
		}
	}
}

// TestGetBytesLongKeys is the end-to-end form: keys on both sides of the
// 128-byte block, written as strings, are found by their bytes.
func TestGetBytesLongKeys(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 64})
	for _, n := range []int{1, 127, 128, 129, 200, 250, 256, 257, 1000} {
		k := strings.Repeat("k", n)
		if err := tab.Insert(k, n); err != nil {
			t.Fatal(err)
		}
		if v, ok := GetBytes(tab, []byte(k)); !ok || v != n {
			t.Errorf("GetBytes of a %d-byte key = %d, %v; want %d, true", n, v, ok, n)
		}
		if v, ok := tab.Get(k); !ok || v != n {
			t.Errorf("Get of a %d-byte key = %d, %v; want %d, true", n, v, ok, n)
		}
	}
}

func TestGetBytes(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 64})
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := tab.Insert(keys[i], i); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok := GetBytes(tab, []byte(k))
		if !ok || v != i {
			t.Fatalf("GetBytes(%q) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	if _, ok := GetBytes(tab, []byte("absent")); ok {
		t.Fatal("GetBytes hit on an absent key")
	}
}

// TestGetBytesEmptyKey: the empty key behaves identically through both
// entry points.
func TestGetBytesEmptyKey(t *testing.T) {
	tab := MustNew[string, int](Config{})
	if _, ok := GetBytes(tab, nil); ok {
		t.Fatal("empty-key hit on empty table")
	}
	if err := tab.Insert("", 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := GetBytes(tab, nil); !ok || v != 42 {
		t.Fatalf("GetBytes(nil) = %d, %v; want 42, true", v, ok)
	}
	if v, ok := GetBytes(tab, []byte{}); !ok || v != 42 {
		t.Fatalf("GetBytes([]) = %d, %v; want 42, true", v, ok)
	}
}

// TestGetBytesDuringMigration holds an incremental resize open and checks
// that GetBytes finds keys still parked in the draining generation.
func TestGetBytesDuringMigration(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 64})
	const n = 48
	for i := range n {
		if err := tab.Insert(fmt.Sprintf("key-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if tab.Growing() {
		t.Fatal("the fill grew the table")
	}
	forceGrow(tab) // every key in the draining generation, and no sweeper
	for i := range n {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := GetBytes(tab, []byte(k)); !ok || v != i {
			t.Fatalf("mid-migration GetBytes(%q) = %d, %v; want %d, true", k, v, ok, i)
		}
	}
	if backlog(tab.loadState()) != 16 {
		t.Fatalf("backlog %d after the reads, want all 16 buckets: a read drained", backlog(tab.loadState()))
	}
}

// TestGetBytesZeroAlloc is the generic-layer half of the hot-path
// allocation proof (allocfree proves it statically; this measures it).
func TestGetBytesZeroAlloc(t *testing.T) {
	tab := MustNew[string, int](Config{InitialCapacity: 256})
	for i := 0; i < 100; i++ {
		if err := tab.Insert(fmt.Sprintf("key-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	hit := []byte("key-42")
	miss := []byte("nope-42")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := GetBytes(tab, hit); !ok {
			t.Fatal("lost key-42")
		}
		if _, ok := GetBytes(tab, miss); ok {
			t.Fatal("phantom hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBytes allocates %.1f times per hit+miss pair; want 0", allocs)
	}
}
