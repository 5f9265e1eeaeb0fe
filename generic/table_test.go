package generic

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cuckoohash/internal/workload"
)

func TestStringKeys(t *testing.T) {
	tab := MustNew[string, string](Config{})
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := tab.Insert(k, fmt.Sprintf("val-%d", i)); err != nil {
			t.Fatalf("Insert(%q): %v", k, err)
		}
	}
	if tab.Len() != 5000 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok := tab.Get(k)
		if !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%q) = %q,%v", k, v, ok)
		}
	}
	if _, ok := tab.Get("nope"); ok {
		t.Fatal("found absent key")
	}
	if err := tab.Insert("key-1", "x"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup insert: %v", err)
	}
	if err := tab.Upsert("key-1", "x"); err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.Get("key-1"); v != "x" {
		t.Fatal("upsert failed")
	}
	if !tab.Delete("key-1") || tab.Delete("key-1") {
		t.Fatal("delete semantics")
	}
}

func TestStructValues(t *testing.T) {
	type coord struct{ X, Y int }
	tab := MustNew[coord, []string](Config{})
	if err := tab.Insert(coord{1, 2}, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	v, ok := tab.Get(coord{1, 2})
	if !ok || len(v) != 2 || v[0] != "a" {
		t.Fatalf("Get = %v,%v", v, ok)
	}
}

func TestAutoGrow(t *testing.T) {
	tab := MustNew[uint64, uint64](Config{InitialCapacity: 64})
	const n = 100000
	for k := uint64(0); k < n; k++ {
		if err := tab.Insert(k+1, k); err != nil {
			t.Fatalf("Insert(%d): %v", k+1, err)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.Cap() < n {
		t.Fatalf("Cap = %d, did not grow", tab.Cap())
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tab.Get(k + 1); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k+1, v, ok)
		}
	}
}

func TestDisableAutoGrow(t *testing.T) {
	tab := MustNew[uint64, uint64](Config{InitialCapacity: 64, DisableAutoGrow: true})
	var err error
	for k := uint64(1); ; k++ {
		if err = tab.Insert(k, k); err != nil {
			break
		}
		if k > 1000 {
			t.Fatal("fixed table never filled")
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentMixedGeneric(t *testing.T) {
	tab := MustNew[string, uint64](Config{InitialCapacity: 1 << 10})
	const threads = 8
	const ops = 5000
	oracles := make([]map[string]uint64, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			oracle := make(map[string]uint64)
			oracles[th] = oracle
			rnd := workload.NewRand(uint64(th) + 3)
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("t%d-%d", th, rnd.Intn(2000))
				switch rnd.Intn(10) {
				case 0, 1, 2, 3, 4:
					v := rnd.Next()
					if err := tab.Upsert(k, v); err != nil {
						t.Errorf("Upsert: %v", err)
						return
					}
					oracle[k] = v
				case 5:
					got := tab.Delete(k)
					if _, want := oracle[k]; got != want {
						t.Errorf("Delete(%q) = %v", k, got)
						return
					}
					delete(oracle, k)
				default:
					v, ok := tab.Get(k)
					wv, wok := oracle[k]
					if ok != wok || (ok && v != wv) {
						t.Errorf("Get(%q) = %d,%v want %d,%v", k, v, ok, wv, wok)
						return
					}
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var want uint64
	for th := 0; th < threads; th++ {
		want += uint64(len(oracles[th]))
		for k, v := range oracles[th] {
			if got, ok := tab.Get(k); !ok || got != v {
				t.Fatalf("final Get(%q) = %d,%v want %d,true", k, got, ok, v)
			}
		}
	}
	if got := tab.Len(); got != want {
		t.Fatalf("Len = %d want %d", got, want)
	}
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	checkSlots(t, tab)
}

func TestConcurrentInsertWithAutoGrow(t *testing.T) {
	tab := MustNew[uint64, uint64](Config{InitialCapacity: 128})
	const threads = 8
	const per = 5000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			base := uint64(th+1) << 32
			for i := uint64(0); i < per; i++ {
				if err := tab.Insert(base|i, i); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if tab.Len() != threads*per {
		t.Fatalf("Len = %d want %d", tab.Len(), threads*per)
	}
	for th := 0; th < threads; th++ {
		base := uint64(th+1) << 32
		for i := uint64(0); i < per; i++ {
			if v, ok := tab.Get(base | i); !ok || v != i {
				t.Fatalf("Get(%d) = %d,%v", base|i, v, ok)
			}
		}
	}
	for tab.Growing() {
		tab.migrateBatch(64)
	}
	checkSlots(t, tab)
}

func TestRangeGeneric(t *testing.T) {
	tab := MustNew[int, int](Config{})
	want := map[int]int{}
	for i := 0; i < 300; i++ {
		want[i] = i * 2
		if err := tab.Insert(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]int{}
	tab.Range(func(k, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d want %d", k, got[k], v)
		}
	}
}
